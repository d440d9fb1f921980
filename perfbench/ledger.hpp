// The ledger benchmark's shared declarations: the per-rep record every
// workload returns, the span recorder that times layers from outside,
// and the decorators that put spans around the P4Auth agent and the
// inner application of every switch.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataplane/program.hpp"
#include "experiments/fabric.hpp"

namespace ledger {

// --- clock ------------------------------------------------------------------

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), for netsim.cpu_per_wall.
std::int64_t process_cpu_ns() noexcept;

// --- spans ------------------------------------------------------------------

/// The layer boundaries the benchmark can wrap from outside the program.
enum class Layer : std::uint8_t { RunAll, Agent, App, Controller };
inline constexpr std::size_t kLayers = 4;

/// Per-layer totals over one rep, summed over every thread.
struct LayerTotals {
  std::array<std::int64_t, kLayers> total_ns{};
  /// Time covered by same-thread child spans (self = total - child).
  std::array<std::int64_t, kLayers> child_ns{};
  std::array<std::uint64_t, kLayers> count{};
  /// Controller spans opened with no enclosing run_all span (harness
  /// thread, between run_all calls).
  std::int64_t controller_outside_ns = 0;
  /// Largest per-thread sum of agent time (must not exceed run_all wall).
  std::int64_t max_thread_program_ns = 0;
  std::uint64_t bursts = 0;
  std::uint64_t burst_frames = 0;
};

/// Span recording is off unless a rep turns it on; every scope then costs
/// one branch. Recording is thread-safe: each thread appends to its own
/// buffer, and totals are read only while the fabric is quiescent.
void set_recording(bool on) noexcept;
/// Zeroes every thread's totals. With keep_spans, also replaces the kept
/// span records with this rep's, until collect_totals().
void reset_totals(bool keep_spans);
LayerTotals collect_totals();
/// Writes the kept span records as JSON lines; returns false on I/O error.
bool write_spans(const std::string& path);

/// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(Layer layer) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
};

/// Counts one burst-plan call of `frames` frames seen at the agent.
void note_burst(std::size_t frames) noexcept;

// --- decorators -----------------------------------------------------------

/// Wraps the inner application: every process() and plan_burst() call is
/// an `app` span.
class AppSpan final : public p4auth::dataplane::DataPlaneProgram {
 public:
  explicit AppSpan(std::unique_ptr<p4auth::dataplane::DataPlaneProgram> inner)
      : inner_(std::move(inner)) {}
  p4auth::dataplane::PipelineOutput process(p4auth::dataplane::Packet& packet,
                                            p4auth::dataplane::PipelineContext& ctx) override;
  void plan_burst(std::span<const p4auth::dataplane::BurstFrameView> frames) override;
  void end_burst() override { inner_->end_burst(); }
  p4auth::dataplane::ProgramDeclaration resources() const override {
    return inner_->resources();
  }
  p4auth::dataplane::PipelineModel pipeline_model() const override {
    return inner_->pipeline_model();
  }
  p4auth::dataplane::DataPlaneProgram* wrapped() noexcept { return inner_.get(); }

 private:
  std::unique_ptr<p4auth::dataplane::DataPlaneProgram> inner_;
};

/// Wraps the P4Auth agent (the switch's whole program): every process()
/// and plan_burst() call is an `agent` span; app spans nest inside.
class AgentSpan final : public p4auth::dataplane::DataPlaneProgram {
 public:
  explicit AgentSpan(std::unique_ptr<p4auth::dataplane::DataPlaneProgram> agent)
      : agent_(std::move(agent)) {}
  p4auth::dataplane::PipelineOutput process(p4auth::dataplane::Packet& packet,
                                            p4auth::dataplane::PipelineContext& ctx) override;
  void plan_burst(std::span<const p4auth::dataplane::BurstFrameView> frames) override;
  void end_burst() override { agent_->end_burst(); }
  p4auth::dataplane::ProgramDeclaration resources() const override {
    return agent_->resources();
  }
  p4auth::dataplane::PipelineModel pipeline_model() const override {
    return agent_->pipeline_model();
  }

 private:
  std::unique_ptr<p4auth::dataplane::DataPlaneProgram> agent_;
};

/// Wraps a program factory so the switch's inner application is an
/// AppSpan (when `spans` is set; otherwise the factory is returned as is).
p4auth::experiments::Fabric::ProgramFactory app_factory(
    p4auth::experiments::Fabric::ProgramFactory make, bool spans);

/// Moves the program of `sw` (the fabric's agent, or what wraps it) out
/// of the switch, for the caller to wrap and set back.
std::unique_ptr<p4auth::dataplane::DataPlaneProgram> take_program(
    p4auth::experiments::FabricSwitch& sw);

/// Puts an AgentSpan around the program of `sw` (the fabric's agent).
void wrap_agent(p4auth::experiments::FabricSwitch& sw);

/// The application under the agent, looking through an AppSpan.
p4auth::dataplane::DataPlaneProgram* app_of(p4auth::experiments::FabricSwitch& sw);

// --- reps -------------------------------------------------------------------

/// Seeded defects for the self-test: each one must be caught by the
/// check named after it.
enum class Defect {
  None,
  ProbeMissesSink,     ///< chain: drop one probe on a link
  VerifyFailure,       ///< chain: corrupt one protected frame on a link
  RepCountDrift,       ///< chain: one rep carries one extra probe
  ShardFingerprint,    ///< chain: the other-shard-count reference differs
  TamperAccepted,      ///< fig17: adversary holds the port key
  CleanRejected,       ///< fig17: uncounted corruption of a clean probe
  TamperAndClean,      ///< fig17: TamperAccepted and CleanRejected together
  DataLost,            ///< fig17: one data frame dropped on a link
  RegisterError,       ///< ctrl: one op addresses an unexposed register
  StaleRead,           ///< ctrl: one write is skipped but still expected
  RotationFailure,     ///< ctrl: one round's port-key exchange legs are lost
  UnattributedTime,    ///< any: untraced harness time inside the timed region
};

struct RepConfig {
  std::uint64_t seed = 1;
  int rep = 0;
  bool spans = false;      ///< decorators + span recording
  bool keep_spans = false; ///< keep this rep's span records for the span file
  bool cpu = false;        ///< read process CPU time around run_all
  bool telemetry = false;  ///< attach a Telemetry bundle to the fabric
  int shards = 1;          ///< engine shards (>= 1; never the legacy engine)
  bool reference = false;  ///< the untimed rep on the other shard count
  Defect defect = Defect::None;
};

/// Exact work counts of one rep; every entry must repeat across reps.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

struct RepResult {
  double setup_s = 0;     ///< rep start -> first timed instruction
  double timed_ns = 0;    ///< timed region wall (sum of its segments)
  double run_all_ns = 0;  ///< wall inside Fabric::run_all
  double cpu_ns = 0;      ///< process CPU over the run_all calls
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops = 0;  ///< completed ops (the ns_per_op denominator)
  std::uint64_t events = 0;
  std::uint64_t register_ops = 0;
  std::uint64_t digests = 0;
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t ctrl_bytes = 0;
  std::uint64_t allocs = 0;
  std::uint64_t pool_misses = 0;
  int threads = 1;
  Counts counts;       ///< gated: identical across reps
  Counts fingerprint;  ///< chain fingerprint (events, clock, deliveries, verifies)
  LayerTotals layers;  ///< filled when spans are on
  std::vector<std::string> errors;  ///< one line per failed check
};

struct Workload {
  const char* name;
  int shards;
  /// Shard count of the untimed reference rep whose fingerprint every
  /// run must match (0: no reference rep).
  int reference_shards;
  RepResult (*run)(const RepConfig&);
};

const std::vector<Workload>& workloads();

}  // namespace ledger
