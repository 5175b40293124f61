// Batch-system telemetry: turns the batch event stream into the registry's
// batch/cluster/scheduler counters, gauges and the lost-node-seconds
// histogram (docs/OBSERVABILITY.md). core::run_scenario subscribes one while
// telemetry::enabled(); code driving a BatchSystem directly subscribes its own.
#pragma once

#include "stats/batch_event.h"
#include "stats/telemetry.h"

namespace elastisim::stats {

class TelemetrySink final : public BatchSubscriber {
 public:
  void on_event(const BatchEvent& event) override;

 private:
  // Resolved in the global registry, which must not be cleared while the
  // sink is subscribed.
  static telemetry::Registry& registry() { return telemetry::Registry::global(); }

  telemetry::Counter& invocations_ = registry().counter("scheduler.invocations");
  telemetry::Counter& rounds_ = registry().counter("scheduler.rounds");
  telemetry::Gauge& queue_gauge_ = registry().gauge("batch.queue_depth");
  telemetry::Gauge& free_gauge_ = registry().gauge("cluster.free_nodes");
  telemetry::Counter& nodes_allocated_ = registry().counter("cluster.nodes_allocated");
  telemetry::Counter& nodes_released_ = registry().counter("cluster.nodes_released");
  telemetry::Counter& jobs_started_ = registry().counter("batch.jobs_started");
  telemetry::Counter& requeues_ = registry().counter("batch.requeues");
  telemetry::Counter& checkpoint_restarts_ = registry().counter("batch.checkpoint_restarts");
  telemetry::Histogram& lost_node_seconds_ = registry().histogram("batch.lost_node_seconds");
  telemetry::Counter& expansions_ = registry().counter("batch.expansions");
  telemetry::Counter& shrinks_ = registry().counter("batch.shrinks");
};

}  // namespace elastisim::stats
