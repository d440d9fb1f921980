// p4auth_ledger — the end-to-end P4Auth ledger benchmark program.
//
//   p4auth_ledger --workload NAME --seed N --seconds S --trace 0|1
//                 [--defect NAME] [--spans-out FILE]
//
// Runs reps of one workload (workloads.cpp) until S seconds have passed,
// checks every rep, gates every work count on being identical across
// reps, and prints one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (ns_per_op, setup_s,
// peak_rss_mb); --trace 1 cycles plain, span-traced and
// telemetry-attached reps and reports the per-layer metrics, after
// checking that the layers add up to the timed wall. --defect seeds one
// defect for the self-test; the run must then fail. Exit status: 0 when
// every check passed, 1 when one failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/halfsiphash_lanes.hpp"
#include "ledger.hpp"

namespace ledger {

namespace {

/// Layers plus the netsim residual must cover the timed wall to within
/// this share; the remainder is harness time no span accounts for.
constexpr double kLayerSumTolerance = 0.01;
constexpr int kMinReps = 5;
/// The quantile of the run's reps that ns_per_op and setup_s report.
constexpr double kRunQuantile = 0.9;

/// Self-test defects by name (run.py --self-test names the check that
/// must catch each one).
constexpr std::pair<Defect, const char*> kDefects[] = {
    {Defect::ProbeMissesSink, "probe_misses_sink"},
    {Defect::VerifyFailure, "verify_failure"},
    {Defect::RepCountDrift, "rep_count_drift"},
    {Defect::ShardFingerprint, "shard_fingerprint"},
    {Defect::TamperAccepted, "tamper_accepted"},
    {Defect::CleanRejected, "clean_rejected"},
    {Defect::TamperAndClean, "tamper_and_clean"},
    {Defect::DataLost, "data_lost"},
    {Defect::RegisterError, "register_error"},
    {Defect::StaleRead, "stale_read"},
    {Defect::RotationFailure, "rotation_failure"},
    {Defect::UnattributedTime, "unattributed_time"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Defect defect = Defect::None;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "p4auth_ledger: %s\n"
               "usage: p4auth_ledger --workload NAME --seed N --seconds S --trace 0|1\n"
               "                     [--defect NAME] [--spans-out FILE]\n"
               "workloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\ndefects:");
  for (const auto& [defect, name] : kDefects) std::fprintf(stderr, " %s", name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--defect") {
      const auto* it = std::find_if(std::begin(kDefects), std::end(kDefects),
                                    [&value](const auto& d) { return value == d.second; });
      if (it == std::end(kDefects)) usage(("unknown defect " + value).c_str());
      a.defect = it->first;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// The q-quantile of v, interpolating linearly between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double k = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(k);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

template <typename F>
double quantile_of(const std::vector<const RepResult*>& reps, double q, F value) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const RepResult* r : reps) v.push_back(value(*r));
  return quantile(std::move(v), q);
}

template <typename F>
double median_of(const std::vector<const RepResult*>& reps, F value) {
  return quantile_of(reps, 0.5, value);
}

double per_op(double x, const RepResult& r) {
  return r.ops == 0 ? 0 : x / static_cast<double>(r.ops);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string counts_text(const Counts& counts) {
  std::string out;
  for (const auto& [name, value] : counts) {
    if (!out.empty()) out += ' ';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

/// Per-rep layer decomposition of a span-traced rep, in ns (thread-ns on
/// a sharded rep: the budget is run_all wall x threads).
struct Decomposition {
  double netsim = 0;
  double core = 0;
  double apps = 0;
  double controller = 0;
  double unattributed = 0;
  double wall = 0;
};

Decomposition decompose(const RepResult& r) {
  const LayerTotals& t = r.layers;
  const auto at = [](const auto& a, Layer l) {
    return static_cast<double>(a[static_cast<std::size_t>(l)]);
  };
  const double run_all = at(t.total_ns, Layer::RunAll);
  const double controller = at(t.total_ns, Layer::Controller);
  const double outside = static_cast<double>(t.controller_outside_ns);
  Decomposition d;
  d.wall = r.timed_ns;
  d.core = at(t.total_ns, Layer::Agent) - at(t.child_ns, Layer::Agent);
  d.apps = at(t.total_ns, Layer::App) - at(t.child_ns, Layer::App);
  d.controller = controller - at(t.child_ns, Layer::Controller);
  d.netsim = run_all * r.threads - at(t.total_ns, Layer::Agent) - (controller - outside);
  d.unattributed = r.timed_ns - run_all - outside;
  return d;
}

/// Peak resident set of this address space (VmHWM). getrusage's
/// ru_maxrss would also count the launching process, whose high-water
/// mark survives exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string provenance(const Workload& w, const Args& a, int threads, std::size_t reps) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"lane_backend\": \"%s\", \"nproc\": %u, "
                "\"shards\": %d, \"threads\": %d, \"reps\": %zu}",
                w.name, static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
                P4AUTH_LEDGER_COMPILER, P4AUTH_LEDGER_BUILD_TYPE,
                p4auth::crypto::sip_lane_backend_name(p4auth::crypto::active_sip_lane_backend()),
                std::thread::hardware_concurrency(), w.shards, threads, reps);
  return buf;
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  std::vector<RepResult> reps;
  std::vector<std::string> errors;
  // Traced runs cycle three kinds of rep so that each kind is spread
  // over the whole run: plain (CPU read around run_all), span-traced,
  // and telemetry-attached.
  enum Kind { kPlain, kSpans, kTelemetry };
  std::vector<Kind> kinds;
  const int cycle = args.trace ? 3 : 1;
  const std::int64_t start = now_ns();
  bool kept = false;
  for (int rep = 0;; ++rep) {
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (rep >= kMinReps * cycle && elapsed >= args.seconds) break;
    const Kind kind = static_cast<Kind>(rep % cycle);
    RepConfig cfg;
    cfg.seed = args.seed;
    cfg.rep = rep;
    cfg.shards = workload->shards;
    cfg.defect = args.defect;
    cfg.spans = kind == kSpans;
    cfg.keep_spans = cfg.spans && !kept;
    cfg.cpu = args.trace && kind == kPlain;
    cfg.telemetry = kind == kTelemetry;
    kept = kept || cfg.keep_spans;
    set_recording(cfg.spans);
    reps.push_back(workload->run(cfg));
    set_recording(false);
    kinds.push_back(kind);
    for (const std::string& e : reps.back().errors) {
      errors.push_back("rep " + std::to_string(rep) + ": " + e);
    }
    if (!reps.back().errors.empty()) break;  // a failed check ends the run
  }

  // Exact-count gate: every count and the fingerprint repeat in every
  // rep. Allocations repeat among reps of one kind only: an attached
  // telemetry bundle allocates as it records.
  const RepResult& first = reps.front();
  const auto without_allocs = [](Counts counts) {
    std::erase_if(counts, [](const auto& entry) { return entry.first == "allocs"; });
    return counts;
  };
  for (std::size_t i = 1; i < reps.size() && errors.empty(); ++i) {
    const RepResult& same_kind = reps[static_cast<std::size_t>(kinds[i])];
    if (reps[i].counts != same_kind.counts || reps[i].fingerprint != first.fingerprint ||
        without_allocs(reps[i].counts) != without_allocs(first.counts)) {
      errors.push_back("work counts differ between rep " + std::to_string(kinds[i]) +
                       " and rep " + std::to_string(i) + ": [" + counts_text(same_kind.counts) +
                       "] vs [" + counts_text(reps[i].counts) + "]");
    }
  }
  // A chain workload must match the fingerprint of one untimed rep of
  // the same seed on the other shard count.
  if (errors.empty() && workload->reference_shards > 0) {
    RepConfig cfg;
    cfg.seed = args.seed;
    cfg.rep = static_cast<int>(reps.size());
    cfg.shards = workload->reference_shards;
    cfg.reference = true;
    cfg.defect = args.defect;
    const RepResult reference = workload->run(cfg);
    const std::string engine = std::to_string(cfg.shards) + "-shard";
    for (const std::string& e : reference.errors) {
      errors.push_back(engine + " reference: " + e);
    }
    if (reference.fingerprint != first.fingerprint) {
      errors.push_back("fingerprint differs from the " + engine + " engine: [" +
                       counts_text(first.fingerprint) + "] vs [" +
                       counts_text(reference.fingerprint) + "]");
    }
  }

  std::vector<const RepResult*> plain, spans, tele;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    attempted += reps[i].attempted;
    failed += reps[i].failed;
    (kinds[i] == kPlain ? plain : kinds[i] == kSpans ? spans : tele).push_back(&reps[i]);
  }

  std::vector<Metric> metrics;
  const auto ns_op = [](const RepResult& r) { return per_op(r.timed_ns, r); };
  if (!args.trace) {
    // The 90th percentile of the reps, not their median: the reference
    // host runs at a steady baseline speed with bursts up to 1.8x faster
    // whose share of a run varies from none to most of it, so a median
    // or total of reps follows that share, while an upper quantile reads
    // the baseline (README.md, "Steadiness").
    metrics.push_back({"ns_per_op", quantile_of(plain, kRunQuantile, ns_op), "ns"});
    metrics.push_back({"setup_s",
                       quantile_of(plain, kRunQuantile, [](const RepResult& r) { return r.setup_s; }),
                       "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else if (!spans.empty() && !tele.empty()) {
    const auto sum_check = [&errors](const RepResult& r, const Decomposition& d) {
      const double run_all = static_cast<double>(r.layers.total_ns[0]);
      if (std::fabs(d.unattributed) > kLayerSumTolerance * d.wall) {
        char why[160];
        std::snprintf(why, sizeof why,
                      "layer sum: %.0f ns (%.2f%%) of the timed wall is outside every layer span "
                      "(tolerance %.0f%%)",
                      d.unattributed, 100 * d.unattributed / d.wall, 100 * kLayerSumTolerance);
        errors.push_back(why);
      }
      if (d.core < 0 || d.netsim < 0 || d.controller < 0 ||
          static_cast<double>(r.layers.max_thread_program_ns) > run_all) {
        errors.push_back("layer sum: a self time is negative (spans do not nest)");
      }
    };
    std::vector<Decomposition> parts;
    for (const RepResult* r : spans) {
      parts.push_back(decompose(*r));
      if (errors.empty()) sum_check(*r, parts.back());
    }
    const auto part = [&](double Decomposition::*field) {
      std::vector<double> v;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        v.push_back(per_op(parts[i].*field, *spans[i]));
      }
      return median(v);
    };
    const double plain_ns = median_of(plain, ns_op);
    const double count_base = static_cast<double>(std::max<std::uint64_t>(first.ops, 1));
    const auto per = [&](std::uint64_t x) { return static_cast<double>(x) / count_base; };
    const RepResult& traced = *spans.front();
    metrics = {
        {"netsim.events_per_op", per(first.events), "count"},
        {"netsim.ns_per_event",
         median_of(plain, [](const RepResult& r) {
           return r.events == 0 ? 0 : r.run_all_ns / static_cast<double>(r.events);
         }),
         "ns"},
        {"netsim.self_ns_per_op", part(&Decomposition::netsim), "ns"},
        {"netsim.frames_per_burst",
         traced.layers.bursts == 0 ? 0
                                   : static_cast<double>(traced.layers.burst_frames) /
                                         static_cast<double>(traced.layers.bursts),
         "count"},
        {"netsim.cpu_per_wall",
         median_of(plain, [](const RepResult& r) { return r.cpu_ns / r.run_all_ns; }), "ratio"},
        {"core.ns_per_op", part(&Decomposition::core), "ns"},
        {"core.digests_per_op", per(first.digests), "count"},
        {"apps.ns_per_op", part(&Decomposition::apps), "ns"},
        {"apps.calls_per_op", per(traced.layers.count[static_cast<std::size_t>(Layer::App)]),
         "count"},
        {"dataplane.register_ops_per_op", per(first.register_ops), "count"},
        {"controller.issue_ns_per_op", part(&Decomposition::controller), "ns"},
        {"controller.msgs_per_op", per(first.ctrl_msgs), "count"},
        {"controller.bytes_per_op", per(first.ctrl_bytes), "count"},
        {"common.allocs_per_op", per(first.allocs), "count"},
        {"common.pool_misses_per_op", per(first.pool_misses), "count"},
        {"telemetry.ns_per_op", median_of(tele, ns_op) - plain_ns, "ns"},
        {"bench.trace_overhead_frac", (median_of(spans, ns_op) - plain_ns) / plain_ns, "ratio"},
    };
    // Span-derived counts repeat exactly too.
    for (const RepResult* r : spans) {
      if (r->layers.count != traced.layers.count || r->layers.bursts != traced.layers.bursts ||
          r->layers.burst_frames != traced.layers.burst_frames) {
        errors.push_back("span counts differ between traced reps");
        break;
      }
    }

    std::printf("layer table (%s, median ns per op over %zu span-traced reps%s):\n",
                workload->name, spans.size(),
                first.threads > 1 ? "; thread-ns, budget = run_all wall x threads" : "");
    const double wall = part(&Decomposition::wall) * first.threads;
    const struct {
      const char* name;
      double value;
    } rows[] = {{"netsim (residual)", part(&Decomposition::netsim)},
                {"core (agent + crypto)", part(&Decomposition::core)},
                {"apps", part(&Decomposition::apps)},
                {"controller (calls)", part(&Decomposition::controller)},
                {"unattributed", part(&Decomposition::unattributed)}};
    double sum = 0;
    for (const auto& row : rows) {
      std::printf("  %-24s %12.1f ns  %6.2f%%\n", row.name, row.value, 100 * row.value / wall);
      sum += row.value;
    }
    std::printf("  %-24s %12.1f ns  (budget %.1f ns; trace overhead %.2f%%)\n", "sum", sum, wall,
                100 * (median_of(spans, ns_op) - plain_ns) / plain_ns);
  } else {
    errors.push_back("traced run ended before it had span-traced and telemetry reps");
  }

  if (!args.spans_out.empty() && args.trace && !write_spans(args.spans_out)) {
    errors.push_back("cannot write " + args.spans_out);
  }

  std::printf("workload %s: %zu reps, counts per rep [%s]\n", workload->name, reps.size(),
              counts_text(first.counts).c_str());
  if (!first.fingerprint.empty()) {
    std::printf("fingerprint [%s]\n", counts_text(first.fingerprint).c_str());
  }
  std::string per_rep;
  for (const RepResult* r : plain) {
    char value[32];
    std::snprintf(value, sizeof value, " %.0f", per_op(r->timed_ns, *r));
    per_rep += value;
  }
  std::printf("ns per op, plain reps in run order:%s\n", per_rep.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("provenance: %s\n", provenance(*workload, args, first.threads, reps.size()).c_str());

  const bool correct = errors.empty() && failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace ledger

int main(int argc, char** argv) { return ledger::run(ledger::parse(argc, argv)); }
