#include "core/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "core/batch_system.h"
#include "json/reader.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace elastisim::core {

std::string to_string(FailureDistribution dist) {
  switch (dist) {
    case FailureDistribution::kExponential: return "exponential";
    case FailureDistribution::kWeibull: return "weibull";
  }
  return "?";
}

std::string to_string(RepairDistribution dist) {
  switch (dist) {
    case RepairDistribution::kConstant: return "constant";
    case RepairDistribution::kLognormal: return "lognormal";
  }
  return "?";
}

std::optional<FailureDistribution> failure_distribution_from_string(std::string_view name) {
  if (name == "exponential") return FailureDistribution::kExponential;
  if (name == "weibull") return FailureDistribution::kWeibull;
  return std::nullopt;
}

std::optional<RepairDistribution> repair_distribution_from_string(std::string_view name) {
  if (name == "constant") return RepairDistribution::kConstant;
  if (name == "lognormal") return RepairDistribution::kLognormal;
  return std::nullopt;
}

double failure_horizon(const FaultModelConfig& config, const std::vector<workload::Job>& jobs) {
  if (config.horizon > 0.0) return config.horizon;
  double last_submit = 0.0;
  for (const workload::Job& job : jobs) last_submit = std::max(last_submit, job.submit_time);
  return std::max(86400.0, 2.0 * last_submit);
}

std::optional<SettingError> validate(const FaultModelConfig& config) {
  const auto at_least_zero = [](double value) { return std::isfinite(value) && value >= 0.0; };
  const char* duration = "a finite, non-negative duration";
  const std::pair<bool, SettingError> checks[] = {
      {at_least_zero(config.mtbf), {"mtbf", "mtbf", duration}},
      {std::isfinite(config.weibull_shape) && config.weibull_shape > 0.0,
       {"weibull_shape", "weibull-shape", "a finite number above 0"}},
      {at_least_zero(config.mean_repair), {"repair", "repair", duration}},
      {at_least_zero(config.repair_sigma),
       {"repair_sigma", "repair-sigma", "a finite, non-negative number"}},
      {config.pod_correlation >= 0.0 && config.pod_correlation <= 1.0,
       {"pod_correlation", "pod-correlation", "a probability in [0, 1]"}},
      {at_least_zero(config.horizon), {"horizon", "failure-horizon", duration}},
  };
  for (const auto& [valid, error] : checks) {
    if (!valid) return error;
  }
  return std::nullopt;
}

namespace {

double draw_interarrival(util::Rng& rng, const FaultModelConfig& config) {
  switch (config.failure_distribution) {
    case FailureDistribution::kExponential: return rng.exponential(1.0 / config.mtbf);
    case FailureDistribution::kWeibull: {
      // Choose the scale so the configured mtbf is the distribution's mean:
      // E[Weibull(k, lambda)] = lambda * Gamma(1 + 1/k).
      const double scale = config.mtbf / std::tgamma(1.0 + 1.0 / config.weibull_shape);
      return rng.weibull(config.weibull_shape, scale);
    }
  }
  return config.mtbf;
}

double draw_repair(util::Rng& rng, const FaultModelConfig& config) {
  switch (config.repair_distribution) {
    case RepairDistribution::kConstant: return config.mean_repair;
    case RepairDistribution::kLognormal: {
      // Pick mu so the lognormal's mean equals mean_repair:
      // E[LogNormal(mu, sigma)] = exp(mu + sigma^2 / 2).
      const double sigma = config.repair_sigma;
      const double mu = std::log(config.mean_repair) - sigma * sigma / 2.0;
      return rng.log_normal(mu, sigma);
    }
  }
  return config.mean_repair;
}

}  // namespace

std::vector<FailureEvent> FaultInjector::generate(std::size_t node_count,
                                                  std::size_t pod_size) const {
  std::vector<FailureEvent> events;
  if (config_.mtbf <= 0.0 || node_count == 0) return events;
  const double horizon = failure_horizon(config_, {});
  // These come from CLI flags (--weibull-shape, --repair) and sweep specs,
  // which validate() them first: check in release builds too.
  ELSIM_CHECK(config_.weibull_shape > 0.0, "weibull shape must be positive, got {}",
              config_.weibull_shape);
  ELSIM_CHECK(config_.mean_repair >= 0.0, "repair duration must be non-negative, got {}",
              config_.mean_repair);

  // One child stream per node, all derived from the master seed in node
  // order: node i's schedule is independent of node_count and horizon, so
  // growing the cluster or the window never perturbs existing draws.
  util::Rng master(config_.seed);
  std::vector<util::Rng> streams;
  streams.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) streams.push_back(master.split());

  for (std::size_t node = 0; node < node_count; ++node) {
    util::Rng& rng = streams[node];
    double clock = 0.0;
    while (true) {
      clock += draw_interarrival(rng, config_);
      if (clock >= horizon) break;
      const double repair = std::max(0.0, draw_repair(rng, config_));
      events.push_back({static_cast<platform::NodeId>(node), clock, clock + repair});
      // Correlated pod failure: each same-pod neighbor goes down with the
      // outage window of the primary, drawn from the *primary's* stream so
      // the whole cascade replays from one seed.
      if (config_.pod_correlation > 0.0 && pod_size > 1) {
        const std::size_t pod_begin = (node / pod_size) * pod_size;
        const std::size_t pod_end = std::min(pod_begin + pod_size, node_count);
        for (std::size_t neighbor = pod_begin; neighbor < pod_end; ++neighbor) {
          if (neighbor == node) continue;
          if (rng.bernoulli(config_.pod_correlation)) {
            events.push_back(
                {static_cast<platform::NodeId>(neighbor), clock, clock + repair});
          }
        }
      }
      clock += repair;
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     // elsim-lint: allow(float-equality) -- sort tie-break wants exactness
                     if (a.fail_time != b.fail_time) return a.fail_time < b.fail_time;
                     return a.node < b.node;
                   });
  return events;
}

std::size_t FaultInjector::apply(BatchSystem& batch, const std::vector<FailureEvent>& events) {
  std::size_t accepted = 0;
  for (const FailureEvent& event : events) {
    if (batch.inject_failure(event.node, event.fail_time, event.repair_time)) ++accepted;
  }
  return accepted;
}

json::Value FaultInjector::to_json(const std::vector<FailureEvent>& events) {
  json::Array list;
  list.reserve(events.size());
  for (const FailureEvent& event : events) {
    json::Object entry;
    entry["node"] = static_cast<std::int64_t>(event.node);
    entry["fail"] = event.fail_time;
    // Never repaired: leave the member out (JSON has no infinity).
    if (std::isfinite(event.repair_time)) entry["repair"] = event.repair_time;
    list.push_back(json::Value(std::move(entry)));
  }
  json::Object root;
  root["failures"] = json::Value(std::move(list));
  return json::Value(std::move(root));
}

std::vector<FailureEvent> FaultInjector::from_json(const json::Value& value) {
  json::Reader trace(value, "$", "a failure trace object");
  std::vector<FailureEvent> events;
  for (const json::Element& element : trace.array("failures", "an array of failures", true)) {
    json::Reader entry(element.value, element.path, "a failure object");
    const auto node = entry.integer<platform::NodeId>("node", std::nullopt, 0, "integer node id");
    const double fail =
        entry.quantity("fail", std::nullopt, util::parse_duration, json::Min::kZero);
    // Never repaired when absent.
    const double repair = entry.quantity("repair", std::numeric_limits<double>::infinity(),
                                         util::parse_duration, json::Min::kZero);
    if (repair < fail) entry.fail("repair", "a time no earlier than the failure");
    entry.finish();
    events.push_back({node, fail, repair});
  }
  trace.finish();
  return events;
}

void FaultInjector::save_trace(const std::string& path,
                               const std::vector<FailureEvent>& events) {
  json::write_file(path, to_json(events));
}

std::vector<FailureEvent> FaultInjector::load_trace(const std::string& path) {
  return json::load_file(path, &FaultInjector::from_json);
}

}  // namespace elastisim::core
