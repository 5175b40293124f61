// R12 (extension) — ablation of the malleable policy's two mechanisms:
//   expand-only  — grow running jobs into idle nodes, never shrink,
//   shrink-only  — shrink running jobs to admit the queue head, never grow,
//   both         — the full easy-malleable policy,
//   neither      — plain EASY (baseline).
// Expected shape: expansion drives the makespan gain (it converts idle
// capacity into progress); shrinking drives the wait-time gain (it admits
// queued jobs early); the full policy gets both.
#include "bench_common.h"

#include "core/schedulers.h"

using namespace elastisim;

namespace {

class AblatedScheduler final : public core::Scheduler {
 public:
  AblatedScheduler(bool expand, bool shrink) : expand_(expand), shrink_(shrink) {}

  std::string name() const override { return "easy-malleable-ablated"; }

  void schedule(core::SchedulerContext& ctx) override {
    while (core::passes::easy_backfill_round(ctx, workspace_)) {
    }
    if (shrink_) core::passes::shrink_to_admit_head(ctx, workspace_);
    if (expand_) core::passes::expand_into_idle(ctx, workspace_);
  }

 private:
  bool expand_;
  bool shrink_;
  core::passes::Workspace workspace_;
};

}  // namespace

int main() {
  bench::TelemetryScope telemetry("bench_r12_policy_ablation");
  const auto platform = bench::reference_platform();
  const auto generator = bench::reference_workload(/*malleable_fraction=*/0.75);

  bench::table_header(
      "R12 malleable-mechanism ablation (75% malleable, 128 nodes, 200 jobs)",
      "variant,makespan_s,mean_wait_s,median_wait_s,avg_utilization,expansions,shrinks");
  const struct {
    const char* name;
    bool expand;
    bool shrink;
  } variants[] = {
      {"neither (easy)", false, false},
      {"expand-only", true, false},
      {"shrink-only", false, true},
      {"both (easy-malleable)", true, true},
  };
  for (const auto& variant : variants) {
    sim::Engine engine;
    stats::Recorder recorder;
    platform::Cluster cluster(engine, platform);
    core::BatchSystem batch(engine, cluster,
                            std::make_unique<AblatedScheduler>(variant.expand, variant.shrink),
                            recorder);
    const bench::BatchTelemetry batch_telemetry(batch);
    batch.submit_all(workload::generate_workload(generator));
    engine.run();
    std::printf("%s,%.0f,%.1f,%.1f,%.4f,%d,%d\n", variant.name, recorder.makespan(),
                recorder.mean_wait(), recorder.median_wait(),
                recorder.average_utilization(), recorder.total_expansions(),
                recorder.total_shrinks());
  }
  return 0;
}
