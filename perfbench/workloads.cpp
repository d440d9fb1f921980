// The four ledger workloads. Each rep builds a fresh fabric through the
// public experiments::Fabric API, brings it up (setup), runs one timed
// window of fixed work, and checks every operation it attempted.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/hula/hula.hpp"
#include "attacks/link_mitm.hpp"
#include "common/alloc_probe.hpp"
#include "controller/key_rotation.hpp"
#include "core/auth.hpp"
#include "core/wire.hpp"
#include "ledger.hpp"
#include "netsim/shard_context.hpp"
#include "telemetry/telemetry.hpp"

namespace ledger {
namespace {

using namespace p4auth;
using experiments::Fabric;
using experiments::FabricSwitch;
namespace hula = apps::hula;

constexpr PortId kHostPort{9};

NodeId node(int i) { return NodeId{static_cast<std::uint16_t>(i)}; }

/// "S<i>: <what>" — switch-scoped check messages.
std::string at_switch(int i, const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "S%d: %s", i, what);
  return buf;
}

double seconds_since(std::int64_t start) { return static_cast<double>(now_ns() - start) * 1e-9; }

// --- whole-fabric counters ---------------------------------------------------

struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;  ///< net frames_delivered (links + injections)
  std::uint64_t verified = 0;   ///< agent feedback_verified
  std::uint64_t tagged = 0;     ///< agent feedback_tagged
  std::uint64_t auth_failures = 0;  ///< digest failures + replays + untagged drops
  std::uint64_t register_ops = 0;
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t ctrl_bytes = 0;
  std::uint64_t pool_misses = 0;
};

Snapshot snapshot(Fabric& f, int switches) {
  Snapshot s;
  s.events = f.engine()->processed();
  s.delivered = f.net.merged_stats().frames_delivered;
  for (int i = 1; i <= switches; ++i) {
    FabricSwitch& sw = f.at(node(i));
    const auto& a = sw.agent->stats();
    s.verified += a.feedback_verified;
    s.tagged += a.feedback_tagged;
    s.auth_failures += a.digest_failures + a.replay_rejections + a.unauth_feedback_dropped;
    for (const auto& array : sw.sw->registers().arrays()) s.register_ops += array->accesses();
  }
  const auto& c = f.controller.stats();
  s.ctrl_msgs = c.requests_sent + c.acks_received + c.nacks_received + c.kmp_messages_sent +
                c.kmp_messages_received;
  s.ctrl_bytes = c.kmp_bytes_sent + c.kmp_bytes_received;
  // Each shard owns a buffer pool; the harness thread reads them while
  // the fabric is quiescent.
  for (int k = 0; k < f.shard_count(); ++k) {
    netsim::set_current_shard(k);
    s.pool_misses += f.net.pool().stats().misses;
  }
  netsim::set_current_shard(netsim::kNoShard);
  return s;
}

/// Fills the per-layer counts every workload reports from a before/after
/// pair of snapshots.
void fill_common(RepResult& r, const Snapshot& a, const Snapshot& b) {
  r.events = b.events - a.events;
  r.register_ops = b.register_ops - a.register_ops;
  r.digests = (b.verified - a.verified) + (b.tagged - a.tagged);
  r.ctrl_msgs = b.ctrl_msgs - a.ctrl_msgs;
  r.ctrl_bytes = b.ctrl_bytes - a.ctrl_bytes;
  r.pool_misses = b.pool_misses - a.pool_misses;
  r.counts = {{"events", r.events},
              {"digests", r.digests},
              {"register_ops", r.register_ops},
              {"ctrl_msgs", r.ctrl_msgs},
              {"ctrl_bytes", r.ctrl_bytes},
              {"allocs", r.allocs},
              {"pool_misses", r.pool_misses}};
}

/// One stretch of a rep's timed window: its wall time and allocations
/// add to the rep's totals. Work between segments (injecting the next
/// chunk of traffic, checks) is not timed.
class TimedSegment {
 public:
  explicit TimedSegment(RepResult& r)
      : r_(r), allocs_(AllocProbe::allocations()), start_(now_ns()) {}
  ~TimedSegment() {
    r_.timed_ns += static_cast<double>(now_ns() - start_);
    r_.allocs += AllocProbe::allocations() - allocs_;
  }
  TimedSegment(const TimedSegment&) = delete;
  TimedSegment& operator=(const TimedSegment&) = delete;

 private:
  RepResult& r_;
  std::uint64_t allocs_;
  std::int64_t start_;
};

/// One timed Fabric::run_all: a run_all span when tracing, plus the
/// wall (and, when asked, CPU) bookkeeping of the rep.
void timed_run_all(Fabric& f, RepResult& r, bool cpu) {
  const std::int64_t c0 = cpu ? process_cpu_ns() : 0;
  const std::int64_t t0 = now_ns();
  {
    const Scope span(Layer::RunAll);
    f.run_all();
  }
  const std::int64_t t1 = now_ns();
  r.run_all_ns += static_cast<double>(t1 - t0);
  if (cpu) r.cpu_ns += static_cast<double>(process_cpu_ns() - c0);
}

/// The self-test's unattributed-time defect: busy time inside the timed
/// region that no layer span covers.
void spin_unattributed(const RepConfig& cfg) {
  if (cfg.defect != Defect::UnattributedTime) return;
  const std::int64_t until = now_ns() + 20'000'000;
  while (now_ns() < until) {
  }
}

std::unique_ptr<telemetry::Telemetry> make_telemetry(const RepConfig& cfg) {
  return cfg.telemetry ? std::make_unique<telemetry::Telemetry>() : nullptr;
}

void wrap_agents(Fabric& f, int switches, const RepConfig& cfg) {
  if (!cfg.spans) return;
  for (int i = 1; i <= switches; ++i) wrap_agent(f.at(node(i)));
}

// --- the 12-switch HULA chain (chain12, chain12_2shard, ctrl_rotation) -------

constexpr int kChain = 12;
constexpr SimTime kChainStart = SimTime::from_us(100);
constexpr SimTime kProbePeriod = SimTime::from_us(1);
constexpr int kChainWarmupProbes = 500;
// Each rep's fabric sends kChainWarmupProbes + kChainProbes protected
// frames per port key, well below 2^14.
constexpr int kChainProbes = 4000;

Fabric::ProgramFactory chain_program(NodeId self, bool is_tor, std::vector<PortId> probe_ports) {
  return [self, is_tor, probe_ports = std::move(probe_ports)](
             dataplane::RegisterFile& registers) -> std::unique_ptr<dataplane::DataPlaneProgram> {
    hula::HulaProgram::Config config;
    config.self = self;
    config.is_tor = is_tor;
    config.probe_ports = probe_ports;
    return std::make_unique<hula::HulaProgram>(config, registers);
  };
}

/// The micro_shards chain: P4Auth on, bmv2 timing, 40 us links.
std::unique_ptr<Fabric> build_chain(const RepConfig& cfg, telemetry::Telemetry* tel) {
  Fabric::Options options;
  options.p4auth = true;
  options.timing = dataplane::TimingModel::bmv2();
  options.seed = cfg.seed;
  options.protected_magics = {hula::kProbeMagic};
  options.shards = cfg.shards;
  options.telemetry = tel;
  auto f = std::make_unique<Fabric>(options);
  for (int i = 1; i <= kChain; ++i) {
    std::vector<PortId> probe_ports;
    if (i < kChain) probe_ports.push_back(PortId{2});
    f->add_switch(node(i), app_factory(chain_program(node(i), i == 1 || i == kChain, probe_ports),
                                       cfg.spans));
  }
  wrap_agents(*f, kChain, cfg);
  netsim::LinkConfig link;
  link.latency = SimTime::from_us(40);
  for (int i = 1; i < kChain; ++i) f->connect(node(i), PortId{2}, node(i + 1), PortId{1}, link);
  return f;
}

void inject_probes(Fabric& f, int probes) {
  const Bytes probe_gen = hula::encode_probe_gen();
  for (int i = 0; i < probes; ++i) {
    const std::uint64_t offset = kProbePeriod.ns() * static_cast<std::uint64_t>(i);
    f.net.inject(node(1), kHostPort, probe_gen, SimTime::from_ns(kChainStart.ns() + offset));
  }
}

RepResult run_chain(const RepConfig& cfg) {
  RepResult r;
  const std::int64_t start = now_ns();
  std::uint64_t link_frames = 0;  // outlives the fabric, whose hooks count here
  auto tel = make_telemetry(cfg);
  auto f = build_chain(cfg, tel.get());
  if (const Status s = f->init_all_keys(); !s.ok()) {
    r.errors.push_back("key bring-up failed: " + s.error().message);
    return r;
  }
  inject_probes(*f, kChainWarmupProbes);
  f->run_all();
  r.threads = f->engine()->shards();

  // Seeded defects act on the 100th protected frame crossing S6 -> S7.
  if (cfg.defect == Defect::ProbeMissesSink || cfg.defect == Defect::VerifyFailure) {
    const bool drop = cfg.defect == Defect::ProbeMissesSink;
    f->net.link_at(node(6), PortId{2})->set_tamper(node(6), [&link_frames, drop](Bytes& frame) {
      if (++link_frames != 100) return netsim::TamperVerdict::Pass;
      if (drop) return netsim::TamperVerdict::Drop;
      frame[core::kHeaderSize - 1] ^= 0x01;  // last digest byte
      return netsim::TamperVerdict::Pass;
    });
  }
  int probes = kChainProbes;
  if (cfg.defect == Defect::RepCountDrift && cfg.rep == 1) ++probes;
  if (cfg.defect == Defect::ShardFingerprint && cfg.reference) ++probes;
  inject_probes(*f, probes);
  r.setup_s = seconds_since(start);

  if (cfg.spans) reset_totals(cfg.keep_spans);
  const std::uint64_t sink_before = f->at(node(kChain)).agent->stats().feedback_verified;
  const SimTime clock_before = f->sim.now();
  const Snapshot a = snapshot(*f, kChain);
  {
    const TimedSegment timed(r);
    spin_unattributed(cfg);
    timed_run_all(*f, r, cfg.cpu);
  }
  const Snapshot b = snapshot(*f, kChain);
  if (cfg.spans) r.layers = collect_totals();

  fill_common(r, a, b);
  const std::uint64_t at_sink = f->at(node(kChain)).agent->stats().feedback_verified - sink_before;
  const std::uint64_t verify_failures = b.auth_failures - a.auth_failures;
  const std::uint64_t missed = at_sink < static_cast<std::uint64_t>(probes)
                                   ? static_cast<std::uint64_t>(probes) - at_sink
                                   : 0;
  r.ops = b.verified - a.verified;
  r.attempted = static_cast<std::uint64_t>(probes) * (kChain - 1);
  r.failed = missed + verify_failures;
  if (missed > 0) r.errors.push_back(std::to_string(missed) + " probe(s) missed S12");
  if (verify_failures > 0) {
    r.errors.push_back(std::to_string(verify_failures) + " verify failure(s)");
  }

  const std::uint64_t deliveries = (b.delivered - a.delivered) - static_cast<std::uint64_t>(probes);
  r.counts.emplace_back("deliveries", deliveries);
  r.counts.emplace_back("verified", b.verified - a.verified);
  r.counts.emplace_back("window_sim_ns", (f->sim.now() - clock_before).ns());
  r.fingerprint = {{"events", r.events},
                   {"final_clock_ns", f->sim.now().ns()},
                   {"deliveries", deliveries},
                   {"verified", b.verified - a.verified},
                   {"tagged", b.tagged - a.tagged}};
  return r;
}

// --- fig17_incast ---------------------------------------------------------------

constexpr NodeId kS1{1}, kS2{2}, kS3{3}, kS4{4}, kS5{5};
constexpr SimTime kIncastProbePeriod = SimTime::from_us(100);
constexpr SimTime kIncastTick = SimTime::from_us(50);
constexpr int kIncastSenders = 2;  ///< synchronised senders behind each ingress switch
constexpr std::uint32_t kDataBytes = 1200;
constexpr SimTime kIncastWarmup = SimTime::from_ms(4);
// The timed window is 40 chunks of 5 ms, each injected while the fabric
// is quiescent, so that pending input frames stay ~1 MB rather than the
// whole window's 38 MB.
constexpr SimTime kIncastChunk = SimTime::from_ms(5);
constexpr int kIncastChunks = 40;

Fabric::ProgramFactory fig17_program(NodeId self, bool is_tor, std::vector<PortId> probe_ports) {
  return [self, is_tor, probe_ports = std::move(probe_ports)](
             dataplane::RegisterFile& registers) -> std::unique_ptr<dataplane::DataPlaneProgram> {
    hula::HulaProgram::Config config;
    config.self = self;
    config.is_tor = is_tor;
    config.probe_ports = probe_ports;
    config.util_window = SimTime::from_ms(2);
    config.capacity_bytes_per_window = 2.0 * 125'000.0;  // 1 Gb/s x 2 ms
    config.entry_timeout = SimTime::from_ms(3);
    config.flowlet_timeout = SimTime::from_us(300);
    return std::make_unique<hula::HulaProgram>(config, registers);
  };
}

/// Schedules one window of the incast traffic starting at now(): probe
/// rounds from S5, and at every tick kIncastSenders synchronised frames
/// into S1 (toward S5) and into each middle switch (cross traffic toward
/// S5). Returns {injected frames, injected data frames}.
std::pair<std::uint64_t, std::uint64_t> inject_incast(Fabric& f, SimTime window,
                                                      std::uint64_t seed, std::uint64_t* flow) {
  std::uint64_t frames = 0;
  std::uint64_t data = 0;
  const Bytes probe_gen = hula::encode_probe_gen();
  for (SimTime t = SimTime::from_us(50); t < window; t += kIncastProbePeriod) {
    f.net.inject(kS5, kHostPort, probe_gen, t);
    ++frames;
  }
  const auto frame_for = [seed](std::uint64_t flow_id, int sender) {
    hula::DataPacket packet;
    packet.dst_tor = kS5;
    packet.flow_id = flow_id;
    packet.size_bytes = kDataBytes;
    Bytes frame = hula::encode_data(packet);
    frame.resize(kDataBytes, static_cast<std::uint8_t>(seed * 131 + static_cast<unsigned>(sender)));
    return frame;
  };
  std::uint64_t tick = 0;
  for (SimTime t = SimTime::from_us(200); t < window; t += kIncastTick, ++tick) {
    for (int s = 0; s < kIncastSenders; ++s) {
      // Flows of 24 frames from each S1 sender keep consulting the
      // best-hop table as flowlets turn over.
      f.net.inject(kS1, kHostPort, frame_for(*flow + (tick / 24) * kIncastSenders + s, s), t);
      for (const NodeId middle : {kS2, kS3, kS4}) {
        f.net.inject(middle, kHostPort, frame_for(1'000'000ull * middle.value + tick, s), t);
      }
      frames += 4;
      data += 4;
    }
  }
  *flow += (tick / 24 + 1) * kIncastSenders;
  return {frames, data};
}

constexpr PortId kFromS4{3};  ///< S1's port on the adversary's link

std::uint64_t frame_hash(std::span<const std::uint8_t> frame) noexcept {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (const std::uint8_t byte : frame) h = (h ^ byte) * 1099511628211ull;
  return h;
}

/// Per-frame verdicts at S1, where every tampered probe arrives. The
/// adversary's hook records the hash of each frame it changed; the S4 -> S1
/// link is FIFO, so the protected frames arriving on kFromS4 meet those
/// hashes in order. A frame is rejected when the agent's feedback_rejected
/// count moves while it runs. The hashes go to storage reserved for twice
/// a rep's ~2,040 forged frames, so the check allocates nothing in the
/// timed window.
class S1Verdicts final : public dataplane::DataPlaneProgram {
 public:
  S1Verdicts(std::unique_ptr<dataplane::DataPlaneProgram> program, const core::P4AuthAgent& agent)
      : program_(std::move(program)), agent_(agent) {
    forged_.reserve(1u << 12);
  }

  /// Called by the adversary's hook for every frame it changed.
  void note_forged(std::span<const std::uint8_t> frame) { forged_.push_back(frame_hash(frame)); }

  dataplane::PipelineOutput process(dataplane::Packet& packet,
                                    dataplane::PipelineContext& ctx) override {
    const bool forged = packet.ingress == kFromS4 && core::looks_like_p4auth(packet.payload) &&
                        seen_ < forged_.size() && forged_[seen_] == frame_hash(packet.payload);
    if (forged) ++seen_;
    const std::uint64_t before = agent_.stats().feedback_rejected;
    dataplane::PipelineOutput out = program_->process(packet, ctx);
    const bool rejected = agent_.stats().feedback_rejected != before;
    if (forged && !rejected) ++accepted_forged_;
    if (!forged && rejected) ++rejected_clean_;
    return out;
  }
  void plan_burst(std::span<const dataplane::BurstFrameView> frames) override {
    program_->plan_burst(frames);
  }
  void end_burst() override { program_->end_burst(); }
  dataplane::ProgramDeclaration resources() const override { return program_->resources(); }
  dataplane::PipelineModel pipeline_model() const override { return program_->pipeline_model(); }

  std::uint64_t forged() const noexcept { return forged_.size(); }
  /// Forged frames that have not (yet) reached S1's pipeline.
  std::uint64_t unseen() const noexcept { return forged_.size() - seen_; }
  std::uint64_t accepted_forged() const noexcept { return accepted_forged_; }
  std::uint64_t rejected_clean() const noexcept { return rejected_clean_; }

 private:
  std::unique_ptr<dataplane::DataPlaneProgram> program_;
  const core::P4AuthAgent& agent_;
  std::vector<std::uint64_t> forged_;
  std::size_t seen_ = 0;
  std::uint64_t accepted_forged_ = 0;
  std::uint64_t rejected_clean_ = 0;
};

RepResult run_incast(const RepConfig& cfg) {
  RepResult r;
  const std::int64_t start = now_ns();
  std::uint64_t data_seen = 0;
  auto tel = make_telemetry(cfg);

  Fabric::Options options;
  options.p4auth = true;
  options.seed = cfg.seed;
  options.protected_magics = {hula::kProbeMagic};
  options.shards = cfg.shards;
  options.telemetry = tel.get();
  auto f = std::make_unique<Fabric>(options);
  // S1 ports: 1->S2, 2->S3, 3->S4. S5 ports: 1->S2, 2->S3, 3->S4.
  // Middle switches: port 1 -> S1, port 2 -> S5.
  f->add_switch(kS1, app_factory(fig17_program(kS1, true, {}), cfg.spans));
  for (const NodeId middle : {kS2, kS3, kS4}) {
    f->add_switch(middle, app_factory(fig17_program(middle, false, {PortId{1}, PortId{2}}),
                                      cfg.spans));
  }
  const std::vector<PortId> s5_ports = {PortId{1}, PortId{2}, PortId{3}};
  f->add_switch(kS5, app_factory(fig17_program(kS5, true, s5_ports), cfg.spans));
  wrap_agents(*f, 5, cfg);
  auto verdicts_owner = std::make_unique<S1Verdicts>(take_program(f->at(kS1)), *f->at(kS1).agent);
  S1Verdicts& verdicts = *verdicts_owner;
  f->at(kS1).sw->set_program(std::move(verdicts_owner));
  netsim::LinkConfig link;
  link.latency = SimTime::from_us(20);
  link.bandwidth_gbps = 1.0;
  f->connect(kS1, PortId{1}, kS2, PortId{1}, link);
  f->connect(kS1, PortId{2}, kS3, PortId{1}, link);
  netsim::Link* s4_s1 = f->connect(kS1, PortId{3}, kS4, PortId{1}, link);
  std::vector<netsim::Link*> to_s5 = {f->connect(kS2, PortId{2}, kS5, PortId{1}, link),
                                      f->connect(kS3, PortId{2}, kS5, PortId{2}, link),
                                      f->connect(kS4, PortId{2}, kS5, PortId{3}, link)};
  if (const Status s = f->init_all_keys(); !s.ok()) {
    r.errors.push_back("key bring-up failed: " + s.error().message);
    return r;
  }

  // The Fig 3 adversary on S4 -> S1 forges probeUtil; the benchmark
  // records the frames it actually changed. With the TamperAccepted
  // defect it also holds the port key and re-tags one forged probe.
  const bool leak = cfg.defect == Defect::TamperAccepted || cfg.defect == Defect::TamperAndClean;
  Fabric* fabric = f.get();
  s4_s1->set_tamper(kS4, [rewrite = attacks::make_probe_util_rewriter(10), before = Bytes{},
                          &verdicts, leak, fabric](Bytes& frame) mutable {
    before.assign(frame.begin(), frame.end());
    const netsim::TamperVerdict verdict = rewrite(frame);
    if (frame == before) return verdict;
    if (leak && verdicts.forged() == 49) {
      auto msg = core::decode(frame);
      const auto key = fabric->at(kS1).agent->keys().current(PortId{3});
      if (msg.ok() && key.has_value()) {
        core::Message forged = msg.value();
        core::tag_message(crypto::MacKind::HalfSipHash24, *key, forged);
        frame = core::encode(forged);
      }
    }
    verdicts.note_forged(frame);
    return verdict;
  });
  if (cfg.defect == Defect::CleanRejected || cfg.defect == Defect::TamperAndClean) {
    f->net.link_at(kS2, PortId{1})->set_tamper(kS2, [n = 0](Bytes& frame) mutable {
      if (++n == 50) frame[core::kHeaderSize - 1] ^= 0x01;
      return netsim::TamperVerdict::Pass;
    });
  }
  if (cfg.defect == Defect::DataLost) {
    for (std::size_t k = 0; k < to_s5.size(); ++k) {
      to_s5[k]->set_tamper(NodeId{static_cast<std::uint16_t>(k + 2)}, [&data_seen](Bytes& frame) {
        if (frame.empty() || frame[0] != hula::kDataMagic) return netsim::TamperVerdict::Pass;
        return ++data_seen == 1000 ? netsim::TamperVerdict::Drop : netsim::TamperVerdict::Pass;
      });
    }
  }

  std::uint64_t flow = 1;  // the schedule is seed-independent (README.md)
  inject_incast(*f, kIncastWarmup, cfg.seed, &flow);
  f->run_all();
  r.threads = f->engine()->shards();
  std::uint64_t frames = 0;
  std::uint64_t data = 0;
  const auto inject_chunk = [&] {
    const auto [chunk_frames, chunk_data] = inject_incast(*f, kIncastChunk, cfg.seed, &flow);
    frames += chunk_frames;
    data += chunk_data;
  };
  inject_chunk();
  r.setup_s = seconds_since(start);

  if (cfg.spans) reset_totals(cfg.keep_spans);
  auto* s5 = static_cast<hula::HulaProgram*>(app_of(f->at(kS5)));
  const std::uint64_t sunk_before = s5->stats().data_delivered;
  const auto rejected_at = [&f](int i) { return f->at(node(i)).agent->stats().feedback_rejected; };
  const std::uint64_t forged_before = verdicts.forged();
  const std::uint64_t accepted_forged_before = verdicts.accepted_forged();
  const std::uint64_t rejected_clean_before = verdicts.rejected_clean();
  std::uint64_t rejected_before = 0;
  std::uint64_t rejected_elsewhere_before = 0;  // S2..S5 see only clean probes
  for (int i = 1; i <= 5; ++i) rejected_before += rejected_at(i);
  for (int i = 2; i <= 5; ++i) rejected_elsewhere_before += rejected_at(i);
  const Snapshot a = snapshot(*f, 5);
  const SimTime clock_before = f->sim.now();
  for (int chunk = 0; chunk < kIncastChunks; ++chunk) {
    if (chunk > 0) inject_chunk();
    const TimedSegment timed(r);
    if (chunk == 0) spin_unattributed(cfg);
    timed_run_all(*f, r, cfg.cpu);
  }
  const Snapshot b = snapshot(*f, 5);
  if (cfg.spans) r.layers = collect_totals();

  fill_common(r, a, b);
  std::uint64_t rejected = 0;
  std::uint64_t rejected_elsewhere = 0;
  for (int i = 1; i <= 5; ++i) rejected += rejected_at(i);
  for (int i = 2; i <= 5; ++i) rejected_elsewhere += rejected_at(i);
  rejected -= rejected_before;
  rejected_elsewhere -= rejected_elsewhere_before;
  const std::uint64_t forged = verdicts.forged() - forged_before;
  const std::uint64_t other_failures = (b.auth_failures - a.auth_failures) - rejected;
  const std::uint64_t sunk = s5->stats().data_delivered - sunk_before;
  const std::uint64_t lost = data > sunk ? data - sunk : 0;
  const std::uint64_t accepted_forged = verdicts.accepted_forged() - accepted_forged_before;
  const std::uint64_t rejected_clean = (verdicts.rejected_clean() - rejected_clean_before) +
                                       rejected_elsewhere + other_failures;

  r.ops = (b.delivered - a.delivered) - frames;
  r.attempted = r.ops + lost;
  r.failed = accepted_forged + rejected_clean + lost + verdicts.unseen();
  if (verdicts.unseen() > 0) {
    r.errors.push_back(std::to_string(verdicts.unseen()) +
                       " tampered probe(s) not matched at S1 in link order");
  }
  if (accepted_forged > 0) {
    r.errors.push_back(std::to_string(accepted_forged) + " tampered probe(s) accepted");
  }
  if (rejected_clean > 0) {
    r.errors.push_back(std::to_string(rejected_clean) + " clean probe(s) rejected");
  }
  if (lost > 0) r.errors.push_back(std::to_string(lost) + " data frame(s) not delivered");
  if (forged == 0) r.errors.push_back("the adversary changed no probe");

  r.counts.emplace_back("deliveries", r.ops);
  r.counts.emplace_back("tampered", forged);
  r.counts.emplace_back("rejected", rejected);
  r.counts.emplace_back("data_sunk", sunk);
  r.counts.emplace_back("window_sim_ns", (f->sim.now() - clock_before).ns());
  return r;
}

// --- ctrl_rotation --------------------------------------------------------------

constexpr RegisterId kLedgerReg{0x00BE0001};
constexpr RegisterId kUnexposedReg{0x00BE0002};
constexpr std::size_t kLedgerCells = 64;
constexpr int kWarmupRounds = 20;
constexpr int kRounds = 600;

struct KeyView {
  std::vector<std::optional<Key64>> local;
  std::vector<std::optional<Key64>> port;  ///< S(i) port 2 == S(i+1) port 1
};

RepResult run_rotation(const RepConfig& cfg) {
  RepResult r;
  const std::int64_t start = now_ns();
  auto tel = make_telemetry(cfg);
  auto f = build_chain(cfg, tel.get());
  for (int i = 1; i <= kChain; ++i) {
    FabricSwitch& sw = f->at(node(i));
    const auto array = sw.sw->registers().create("ledger_reg", kLedgerReg, kLedgerCells, 64);
    if (!array.ok() || !sw.agent->expose_register(kLedgerReg, "ledger_reg").ok()) {
      r.errors.push_back("register setup failed on S" + std::to_string(i));
      return r;
    }
  }
  if (const Status s = f->init_all_keys(); !s.ok()) {
    r.errors.push_back("key bring-up failed: " + s.error().message);
    return r;
  }
  controller::KeyRotationScheduler rotation(f->sim, f->controller, {});
  for (int i = 1; i <= kChain; ++i) rotation.track_switch(node(i));
  for (int i = 1; i < kChain; ++i) rotation.track_link(node(i), PortId{2}, node(i + 1));
  // The RotationFailure defect loses the DP-DP key-exchange legs that
  // cross S3 -> S4 during one round.
  bool drop_legs = false;
  if (cfg.defect == Defect::RotationFailure) {
    f->net.link_at(node(3), PortId{2})->set_tamper(node(3), [&drop_legs](Bytes&) {
      return drop_legs ? netsim::TamperVerdict::Drop : netsim::TamperVerdict::Pass;
    });
  }
  r.threads = f->engine()->shards();

  Xoshiro256 values(cfg.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<std::uint64_t> cells(kChain * kLedgerCells, 0);
  const auto keys = [&f] {
    KeyView v;
    for (int i = 1; i <= kChain; ++i) {
      v.local.push_back(f->at(node(i)).agent->keys().current(kCpuPort));
      if (i < kChain) v.port.push_back(f->at(node(i)).agent->keys().current(PortId{2}));
    }
    return v;
  };

  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
  const auto fail = [&](std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  };

  // Issues round n: a rotation over every local and port key, and a
  // write on every switch whose completion issues its read-back, so reads
  // run beside other switches' writes. One controller span covers the
  // calls made here; the reads' spans nest inside run_all.
  const auto issue = [&](int n, bool* rotated) {
    const Scope span(Layer::Controller);
    rotation.rotate_now([rotated] { *rotated = true; });
    for (int i = 1; i <= kChain; ++i) {
      const std::uint32_t index = static_cast<std::uint32_t>((n * 5 + i) % kLedgerCells);
      const std::uint64_t value = values.next_u64();
      std::uint64_t& cell = cells[static_cast<std::size_t>(i - 1) * kLedgerCells + index];
      const bool defective = n == kWarmupRounds + 3 && i == 5;
      if (defective && cfg.defect == Defect::StaleRead) {
        ++attempted;
        cell = value;  // expected, never written
        f->controller.read_register(node(i), kLedgerReg, index,
                                    [&, &cell = cell, i](Result<std::uint64_t> read) {
                                      if (!read.ok() || read.value() != cell) {
                                        fail(at_switch(i, "read-back mismatch"));
                                      } else {
                                        ++ops;
                                      }
                                    });
        continue;
      }
      attempted += 2;
      const RegisterId reg =
          defective && cfg.defect == Defect::RegisterError ? kUnexposedReg : kLedgerReg;
      f->controller.write_register(
          node(i), reg, index, value,
          [&, &cell = cell, i, index, value, reg](Result<std::uint64_t> wrote) {
            if (!wrote.ok()) {
              fail(at_switch(i, "write failed"));
              return;
            }
            cell = value;
            ++ops;
            const Scope read_span(Layer::Controller);
            f->controller.read_register(node(i), reg, index,
                                        [&, &cell = cell, i](Result<std::uint64_t> read) {
                                          if (!read.ok()) {
                                            fail(at_switch(i, "read failed"));
                                          } else if (read.value() != cell) {
                                            fail(at_switch(i, "read-back mismatch"));
                                          } else {
                                            ++ops;
                                          }
                                        });
          });
    }
  };

  // One round: issue, run to quiescence, then check (untimed).
  const auto round = [&](int n, bool timed) {
    bool rotated = false;
    const auto stats_before = rotation.stats();
    const KeyView keys_before = keys();
    std::optional<TimedSegment> segment;
    if (timed) segment.emplace(r);
    if (timed && n == kWarmupRounds) spin_unattributed(cfg);
    drop_legs = n == kWarmupRounds + 3;
    issue(n, &rotated);
    timed_run_all(*f, r, cfg.cpu);
    segment.reset();

    // Untimed: the round finished, every key moved, and both ends agree.
    const auto& s = rotation.stats();
    const std::uint64_t issued = (s.local_updates - stats_before.local_updates) +
                                 (s.port_updates - stats_before.port_updates);
    const std::uint64_t round_failures = s.failures - stats_before.failures;
    attempted += issued;
    ops += issued - round_failures;
    for (std::uint64_t k = 0; k < round_failures; ++k) fail("key update failed");
    if (!rotated) fail("rotation round did not complete");
    const KeyView keys_after = keys();
    for (int i = 1; i <= kChain; ++i) {
      const auto& key = keys_after.local[static_cast<std::size_t>(i - 1)];
      if (!key || key == keys_before.local[static_cast<std::size_t>(i - 1)] ||
          key != f->controller.local_key(node(i))) {
        fail(at_switch(i, "local key not rotated"));
      }
      if (i == kChain) continue;
      const auto& port = keys_after.port[static_cast<std::size_t>(i - 1)];
      if (!port || port == keys_before.port[static_cast<std::size_t>(i - 1)] ||
          port != f->at(node(i + 1)).agent->keys().current(PortId{1})) {
        fail(at_switch(i, "port key toward the next switch not rotated"));
      }
    }
  };

  for (int n = 0; n < kWarmupRounds; ++n) round(n, false);
  if (failed > 0) {
    r.errors = errors;
    r.errors.insert(r.errors.begin(), "warm-up failed");
    r.failed = failed;
    return r;
  }
  r.setup_s = seconds_since(start);
  ops = 0;
  attempted = 0;
  r.run_all_ns = 0;
  r.cpu_ns = 0;
  if (cfg.spans) reset_totals(cfg.keep_spans);

  const Snapshot a = snapshot(*f, kChain);
  int rounds = kRounds;
  for (int n = kWarmupRounds; n < kWarmupRounds + rounds; ++n) round(n, true);
  const Snapshot b = snapshot(*f, kChain);
  if (cfg.spans) r.layers = collect_totals();

  fill_common(r, a, b);
  r.ops = ops;
  r.attempted = attempted;
  r.failed = failed;
  r.errors = errors;
  r.counts.emplace_back("ops", ops);
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"chain12", 1, 2, run_chain},
      {"chain12_2shard", 2, 1, run_chain},
      {"fig17_incast", 1, 0, run_incast},
      {"ctrl_rotation", 1, 0, run_rotation},
  };
  return all;
}

}  // namespace ledger
