#include "sim/cancellation.h"

namespace elastisim::sim {

const char* to_string(CancelReason reason) noexcept {
  switch (reason) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kTimeout:
      return "timeout";
    case CancelReason::kStalled:
      return "stalled";
    case CancelReason::kInterrupted:
      return "interrupted";
  }
  return "unknown";
}

}  // namespace elastisim::sim
