// Span recorder and layer decorators (see ledger.hpp).
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include "ledger.hpp"

namespace ledger {
namespace {

using p4auth::dataplane::DataPlaneProgram;

/// Span records kept per thread for the span file: agent and app spans
/// fill the first kKeptSpansPerThread slots, and run_all and controller
/// spans (which close after their children) may also use the rest. The
/// buffer is reserved up front, so recording never allocates; totals are
/// exact beyond the caps.
constexpr std::size_t kKeptSpansPerThread = 1 << 16;
constexpr std::size_t kSpanBuffer = kKeptSpansPerThread + (1 << 14);
constexpr int kMaxDepth = 16;

struct Span {
  std::uint64_t id = 0;      ///< (thread << 32) | index in that thread's record
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< spans of one operation share this id
  std::int64_t start = 0;
  std::int64_t end = 0;
  Layer layer = Layer::RunAll;
};

struct Open {
  Layer layer = Layer::RunAll;
  std::int64_t start = 0;
  std::uint64_t id = 0;
  std::uint64_t op = 0;
};

struct ThreadLedger {
  std::uint64_t thread = 0;
  std::array<std::int64_t, kLayers> total{};
  std::array<std::int64_t, kLayers> child{};
  std::array<std::uint64_t, kLayers> count{};
  std::int64_t controller_outside = 0;
  std::uint64_t bursts = 0;
  std::uint64_t burst_frames = 0;
  std::array<Open, kMaxDepth> stack{};
  int depth = 0;
  std::uint64_t next_index = 0;
  bool keep = false;
  std::vector<Span> spans;
};

std::atomic<bool> g_recording{false};
/// The open run_all span: the parent of spans that worker threads open
/// with nothing enclosing them on their own stack.
std::atomic<std::uint64_t> g_run_all_span{0};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLedger>> g_threads;  // guarded by g_mu
bool g_keep = false;                                   // guarded by g_mu

thread_local ThreadLedger* t_ledger = nullptr;

ThreadLedger& local() {
  if (t_ledger == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto ledger = std::make_unique<ThreadLedger>();
    ledger->thread = g_threads.size();
    ledger->keep = g_keep;
    if (ledger->keep) ledger->spans.reserve(kSpanBuffer);
    t_ledger = ledger.get();
    g_threads.push_back(std::move(ledger));
  }
  return *t_ledger;
}

// Switch::set_program() has no counterpart that hands the program back,
// so the agent is moved out of the switch through the one access path
// standard C++ leaves open from outside a class: explicit instantiation
// ignores access control, and the friend below exports the member
// pointer it was instantiated with.
using ProgramSlot = std::unique_ptr<DataPlaneProgram> p4auth::netsim::Switch::*;
ProgramSlot program_slot();
template <ProgramSlot Slot>
struct ProgramSlotAccess {
  friend ProgramSlot program_slot() { return Slot; }
};
template struct ProgramSlotAccess<&p4auth::netsim::Switch::program_>;

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::RunAll: return "netsim.run_all";
    case Layer::Agent: return "core.agent";
    case Layer::App: return "apps.app";
    case Layer::Controller: return "controller.call";
  }
  return "?";
}

bool recording() noexcept { return g_recording.load(std::memory_order_relaxed); }

}  // namespace

std::int64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void set_recording(bool on) noexcept { g_recording.store(on, std::memory_order_relaxed); }

void reset_totals(bool keep_spans) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_keep = keep_spans;
  for (auto& t : g_threads) {
    t->total = {};
    t->child = {};
    t->count = {};
    t->controller_outside = 0;
    t->bursts = 0;
    t->burst_frames = 0;
    t->depth = 0;
    // Records kept by an earlier rep stay until another rep keeps its own.
    t->keep = keep_spans;
    if (keep_spans) {
      t->spans.clear();
      t->spans.reserve(kSpanBuffer);
    }
  }
}

LayerTotals collect_totals() {
  std::lock_guard<std::mutex> lock(g_mu);
  // The kept rep ends here; threads that first record later keep nothing.
  g_keep = false;
  LayerTotals out;
  for (const auto& t : g_threads) {
    t->keep = false;
    for (std::size_t l = 0; l < kLayers; ++l) {
      out.total_ns[l] += t->total[l];
      out.child_ns[l] += t->child[l];
      out.count[l] += t->count[l];
    }
    out.controller_outside_ns += t->controller_outside;
    out.max_thread_program_ns =
        std::max(out.max_thread_program_ns, t->total[static_cast<std::size_t>(Layer::Agent)]);
    out.bursts += t->bursts;
    out.burst_frames += t->burst_frames;
  }
  return out;
}

bool write_spans(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const auto& t : g_threads) {
    for (const Span& s : t->spans) origin = std::min(origin, s.start);
  }
  for (const auto& t : g_threads) {
    for (const Span& s : t->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%llu,\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   layer_name(s.layer), static_cast<unsigned long long>(t->thread),
                   static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), static_cast<long long>(s.start - origin),
                   static_cast<long long>(s.end - origin));
    }
  }
  return std::fclose(f) == 0;
}

Scope::Scope(Layer layer) noexcept {
  if (!recording()) return;
  ThreadLedger& t = local();
  if (t.depth >= kMaxDepth) return;
  active_ = true;
  Open& o = t.stack[static_cast<std::size_t>(t.depth)];
  o.layer = layer;
  o.id = (t.thread << 32) | ++t.next_index;
  // An app span belongs to the agent call that invoked it; every other
  // span starts an operation of its own.
  o.op = (layer == Layer::App && t.depth > 0) ? t.stack[static_cast<std::size_t>(t.depth - 1)].op
                                              : o.id;
  if (layer == Layer::RunAll) g_run_all_span.store(o.id, std::memory_order_relaxed);
  ++t.depth;
  o.start = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadLedger& t = *t_ledger;
  const Open o = t.stack[static_cast<std::size_t>(--t.depth)];
  const std::int64_t duration = end - o.start;
  const auto l = static_cast<std::size_t>(o.layer);
  t.total[l] += duration;
  ++t.count[l];
  std::uint64_t parent = 0;
  if (t.depth > 0) {
    const Open& p = t.stack[static_cast<std::size_t>(t.depth - 1)];
    t.child[static_cast<std::size_t>(p.layer)] += duration;
    parent = p.id;
  } else if (o.layer != Layer::RunAll) {
    parent = g_run_all_span.load(std::memory_order_relaxed);
    if (o.layer == Layer::Controller) t.controller_outside += duration;
  }
  if (o.layer == Layer::RunAll) g_run_all_span.store(0, std::memory_order_relaxed);
  const bool capped = o.layer == Layer::Agent || o.layer == Layer::App;
  if (t.keep && t.spans.size() < (capped ? kKeptSpansPerThread : kSpanBuffer)) {
    t.spans.push_back(Span{o.id, parent, o.op, o.start, end, o.layer});
  }
}

void note_burst(std::size_t frames) noexcept {
  if (!recording()) return;
  ThreadLedger& t = local();
  ++t.bursts;
  t.burst_frames += frames;
}

p4auth::dataplane::PipelineOutput AppSpan::process(p4auth::dataplane::Packet& packet,
                                                   p4auth::dataplane::PipelineContext& ctx) {
  const Scope span(Layer::App);
  return inner_->process(packet, ctx);
}

void AppSpan::plan_burst(std::span<const p4auth::dataplane::BurstFrameView> frames) {
  const Scope span(Layer::App);
  inner_->plan_burst(frames);
}

p4auth::dataplane::PipelineOutput AgentSpan::process(p4auth::dataplane::Packet& packet,
                                                     p4auth::dataplane::PipelineContext& ctx) {
  const Scope span(Layer::Agent);
  return agent_->process(packet, ctx);
}

void AgentSpan::plan_burst(std::span<const p4auth::dataplane::BurstFrameView> frames) {
  note_burst(frames.size());
  const Scope span(Layer::Agent);
  agent_->plan_burst(frames);
}

p4auth::experiments::Fabric::ProgramFactory app_factory(
    p4auth::experiments::Fabric::ProgramFactory make, bool spans) {
  if (!spans) return make;
  return [make = std::move(make)](p4auth::dataplane::RegisterFile& registers)
             -> std::unique_ptr<DataPlaneProgram> {
    return std::make_unique<AppSpan>(make(registers));
  };
}

std::unique_ptr<DataPlaneProgram> take_program(p4auth::experiments::FabricSwitch& sw) {
  return std::move(sw.sw->*program_slot());
}

void wrap_agent(p4auth::experiments::FabricSwitch& sw) {
  sw.sw->set_program(std::make_unique<AgentSpan>(take_program(sw)));
}

DataPlaneProgram* app_of(p4auth::experiments::FabricSwitch& sw) {
  DataPlaneProgram* inner = sw.agent->inner();
  if (auto* span = dynamic_cast<AppSpan*>(inner)) return span->wrapped();
  return inner;
}

}  // namespace ledger
