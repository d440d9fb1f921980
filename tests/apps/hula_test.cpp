#include "apps/hula/hula.hpp"

#include <gtest/gtest.h>

namespace p4auth::apps::hula {
namespace {

constexpr NodeId kSelf{1};
constexpr NodeId kTor{5};

class HulaTest : public ::testing::Test {
 protected:
  void SetUp() override { make_program({PortId{4}}); }

  void make_program(std::vector<PortId> probe_ports, bool is_tor = false) {
    regs_ = std::make_unique<dataplane::RegisterFile>();
    HulaProgram::Config config;
    config.self = kSelf;
    config.is_tor = is_tor;
    config.probe_ports = std::move(probe_ports);
    config.flowlet_timeout = SimTime::from_us(100);
    config.entry_timeout = SimTime::from_ms(10);
    program_ = std::make_unique<HulaProgram>(config, *regs_);
  }

  dataplane::PipelineOutput deliver(Bytes payload, PortId ingress, SimTime at) {
    dataplane::Packet packet;
    packet.payload = std::move(payload);
    packet.ingress = ingress;
    packet.arrival = at;
    dataplane::PipelineContext ctx(*regs_, rng_, at, kSelf);
    return program_->process(packet, ctx);
  }

  Bytes probe_from(PortId ingress_unused, std::uint8_t util, NodeId via) {
    (void)ingress_unused;
    Probe probe;
    probe.origin_tor = kTor;
    probe.max_util = util;
    probe.trace = {{kTor, PortId{0}, 0}, {via, PortId{1}, util}};
    return encode_probe(probe).value();
  }

  Bytes data(std::uint64_t flow, std::uint32_t size = 1000) {
    return encode_data(DataPacket{kTor, flow, size});
  }

  std::unique_ptr<dataplane::RegisterFile> regs_;
  std::unique_ptr<HulaProgram> program_;
  Xoshiro256 rng_{3};
};

TEST_F(HulaTest, ProbeEstablishesBestHop) {
  deliver(probe_from(PortId{1}, 30, NodeId{2}), PortId{1}, SimTime::from_us(10));
  const auto hop = program_->best_hop(kTor, SimTime::from_us(20));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, PortId{1});
}

TEST_F(HulaTest, LowerUtilProbeWins) {
  deliver(probe_from(PortId{1}, 50, NodeId{2}), PortId{1}, SimTime::from_us(10));
  deliver(probe_from(PortId{2}, 20, NodeId{3}), PortId{2}, SimTime::from_us(11));
  EXPECT_EQ(*program_->best_hop(kTor, SimTime::from_us(20)), PortId{2});
  // A worse probe from a *different* hop does not displace the best.
  deliver(probe_from(PortId{3}, 90, NodeId{4}), PortId{3}, SimTime::from_us(12));
  EXPECT_EQ(*program_->best_hop(kTor, SimTime::from_us(20)), PortId{2});
}

TEST_F(HulaTest, ProbeFromCurrentBestHopRefreshesEvenIfWorse) {
  deliver(probe_from(PortId{2}, 20, NodeId{3}), PortId{2}, SimTime::from_us(10));
  // Congestion rises on the best path; the refresh must be accepted so the
  // switch can react (classic HULA rule).
  deliver(probe_from(PortId{2}, 80, NodeId{3}), PortId{2}, SimTime::from_us(15));
  deliver(probe_from(PortId{1}, 40, NodeId{2}), PortId{1}, SimTime::from_us(16));
  EXPECT_EQ(*program_->best_hop(kTor, SimTime::from_us(20)), PortId{1});
}

TEST_F(HulaTest, StaleEntryIsReplacedRegardlessOfUtil) {
  deliver(probe_from(PortId{2}, 10, NodeId{3}), PortId{2}, SimTime::from_us(10));
  // 20 ms later (entry_timeout = 10 ms) a worse probe must take over.
  deliver(probe_from(PortId{1}, 90, NodeId{2}), PortId{1}, SimTime::from_ms(20));
  EXPECT_EQ(*program_->best_hop(kTor, SimTime::from_ms(20)), PortId{1});
}

TEST_F(HulaTest, BestHopExpires) {
  deliver(probe_from(PortId{1}, 10, NodeId{2}), PortId{1}, SimTime::from_us(10));
  EXPECT_TRUE(program_->best_hop(kTor, SimTime::from_ms(5)).has_value());
  EXPECT_FALSE(program_->best_hop(kTor, SimTime::from_ms(25)).has_value());
}

TEST_F(HulaTest, ProbeForwardedWithAppendedHopRecord) {
  auto out = deliver(probe_from(PortId{1}, 30, NodeId{2}), PortId{1}, SimTime::from_us(10));
  ASSERT_EQ(out.emits.size(), 1u);
  EXPECT_EQ(out.emits[0].port, PortId{4});
  const auto forwarded = decode_probe(out.emits[0].payload);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().trace.size(), 3u);
  EXPECT_EQ(forwarded.value().trace.back().node, kSelf);
}

TEST_F(HulaTest, ProbeNotReflectedToIngress) {
  make_program({PortId{1}, PortId{4}});
  auto out = deliver(probe_from(PortId{1}, 30, NodeId{2}), PortId{1}, SimTime::from_us(10));
  ASSERT_EQ(out.emits.size(), 1u);
  EXPECT_EQ(out.emits[0].port, PortId{4});
}

TEST_F(HulaTest, LoopingProbeDropped) {
  Probe probe;
  probe.origin_tor = kTor;
  probe.trace = {{kTor, PortId{0}, 0}, {kSelf, PortId{1}, 5}};  // we are already in it
  auto out = deliver(encode_probe(probe).value(), PortId{1}, SimTime::from_us(10));
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.emits.empty());
}

std::uint64_t hula_register_accesses(dataplane::RegisterFile& regs) {
  std::uint64_t total = 0;
  for (const char* name : {"hula_best_hop", "hula_best_util", "hula_last_update",
                           "hula_flowlet_port", "hula_flowlet_time", "hula_util_bytes",
                           "hula_util_time"}) {
    total += regs.by_name(name)->accesses();
  }
  return total;
}

TEST_F(HulaTest, FullTraceProbeDroppedBeforeRegisterAccess) {
  // The hop count is one byte: a 255-hop trace has no room for our record,
  // and forwarding it would emit a frame whose count wrapped to 0.
  Probe probe;
  probe.origin_tor = kTor;
  probe.max_util = 10;
  probe.trace.assign(kMaxProbeHops, HopRecord{NodeId{2}, PortId{1}, 5});
  const std::uint64_t before = hula_register_accesses(*regs_);
  auto out = deliver(encode_probe(probe).value(), PortId{1}, SimTime::from_us(10));
  EXPECT_TRUE(out.dropped);
  EXPECT_TRUE(out.emits.empty());
  EXPECT_EQ(hula_register_accesses(*regs_), before);
  EXPECT_FALSE(program_->best_hop(kTor, SimTime::from_us(20)).has_value());
}

TEST_F(HulaTest, ProbeOneHopShortOfFullIsForwardedFull) {
  Probe probe;
  probe.origin_tor = kTor;
  probe.trace.assign(kMaxProbeHops - 1, HopRecord{NodeId{2}, PortId{1}, 5});
  auto out = deliver(encode_probe(probe).value(), PortId{1}, SimTime::from_us(10));
  ASSERT_EQ(out.emits.size(), 1u);
  const auto forwarded = decode_probe(out.emits[0].payload);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().trace.size(), kMaxProbeHops);
  EXPECT_EQ(forwarded.value().trace.back().node, kSelf);
}

TEST_F(HulaTest, DataFollowsBestHop) {
  deliver(probe_from(PortId{2}, 20, NodeId{3}), PortId{2}, SimTime::from_us(10));
  auto out = deliver(data(1), PortId{8}, SimTime::from_us(20));
  ASSERT_EQ(out.emits.size(), 1u);
  EXPECT_EQ(out.emits[0].port, PortId{2});
  EXPECT_EQ(program_->stats().data_forwarded, 1u);
}

TEST_F(HulaTest, DataDroppedWithoutRoute) {
  auto out = deliver(data(1), PortId{8}, SimTime::from_us(20));
  EXPECT_TRUE(out.dropped);
  EXPECT_EQ(program_->stats().data_dropped, 1u);
}

TEST_F(HulaTest, FlowletSticksToItsPortWithinTimeout) {
  deliver(probe_from(PortId{2}, 20, NodeId{3}), PortId{2}, SimTime::from_us(10));
  deliver(data(42), PortId{8}, SimTime::from_us(20));
  // Better probe arrives on another port...
  deliver(probe_from(PortId{1}, 5, NodeId{2}), PortId{1}, SimTime::from_us(30));
  // ...but the same flow within the flowlet gap stays put.
  auto out = deliver(data(42), PortId{8}, SimTime::from_us(40));
  ASSERT_EQ(out.emits.size(), 1u);
  EXPECT_EQ(out.emits[0].port, PortId{2});
  // After the flowlet gap the flow moves to the new best hop.
  auto out2 = deliver(data(42), PortId{8}, SimTime::from_us(200));
  ASSERT_EQ(out2.emits.size(), 1u);
  EXPECT_EQ(out2.emits[0].port, PortId{1});
}

TEST_F(HulaTest, TorSinksItsOwnTraffic) {
  make_program({}, /*is_tor=*/true);
  Bytes to_self = encode_data(DataPacket{kSelf, 1, 500});
  auto out = deliver(to_self, PortId{1}, SimTime::from_us(10));
  EXPECT_TRUE(out.emits.empty());
  EXPECT_EQ(program_->stats().data_delivered, 1u);
}

TEST_F(HulaTest, TorGeneratesProbesOnTrigger) {
  make_program({PortId{1}, PortId{2}}, /*is_tor=*/true);
  auto out = deliver(encode_probe_gen(), PortId{9}, SimTime::from_us(10));
  ASSERT_EQ(out.emits.size(), 2u);
  const auto probe = decode_probe(out.emits[0].payload);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().origin_tor, kSelf);
  EXPECT_EQ(probe.value().max_util, 0);
  EXPECT_EQ(program_->stats().probes_generated, 1u);
}

TEST_F(HulaTest, NonTorIgnoresProbeGen) {
  auto out = deliver(encode_probe_gen(), PortId{9}, SimTime::from_us(10));
  EXPECT_TRUE(out.dropped);
}

TEST_F(HulaTest, UtilizationRaisesReportedProbeUtil) {
  // Saturate egress port 2 with data, then check a probe arriving on
  // port 2 carries elevated util.
  deliver(probe_from(PortId{2}, 0, NodeId{3}), PortId{2}, SimTime::from_us(10));
  for (int i = 0; i < 50; ++i) {
    deliver(data(static_cast<std::uint64_t>(i), 50'000), PortId{8},
            SimTime::from_us(20 + static_cast<std::uint64_t>(i)));
  }
  auto out = deliver(probe_from(PortId{2}, 0, NodeId{3}), PortId{2}, SimTime::from_us(100));
  ASSERT_EQ(out.emits.size(), 1u);
  const auto forwarded = decode_probe(out.emits[0].payload);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_GT(forwarded.value().max_util, 50);
}

TEST_F(HulaTest, ResourcesDeclareHulaState) {
  const auto decl = program_->resources();
  bool has_best_hop = false;
  for (const auto& reg : decl.registers) {
    if (reg.name == "hula_best_hop") has_best_hop = true;
  }
  EXPECT_TRUE(has_best_hop);
  EXPECT_GT(decl.header_phv_bits, 0);
}

}  // namespace
}  // namespace p4auth::apps::hula
