#include "attacks/link_mitm.hpp"

#include <gtest/gtest.h>

#include "core/auth.hpp"

namespace p4auth::attacks {
namespace {

namespace hula = apps::hula;

constexpr Key64 kPortKey = 0xFEEDFACE0000BEEFull;

Bytes raw_probe(std::uint8_t util) {
  hula::Probe probe;
  probe.origin_tor = NodeId{5};
  probe.max_util = util;
  probe.trace = {{NodeId{5}, PortId{0}, 0}, {NodeId{4}, PortId{2}, util}};
  return hula::encode_probe(probe).value();
}

Bytes wrapped_probe(std::uint8_t util) {
  core::Message msg;
  msg.header.hdr_type = core::HdrType::DpData;
  msg.header.msg_type = 1;
  msg.header.seq_num = 3;
  msg.header.src = NodeId{4};
  msg.header.dst = NodeId{1};
  msg.payload = core::DpDataPayload{raw_probe(util)};
  core::tag_message(crypto::MacKind::HalfSipHash24, kPortKey, msg);
  return core::encode(msg);
}

TEST(ProbeUtilRewriter, ForgesRawProbe) {
  auto hook = make_probe_util_rewriter(10);
  Bytes frame = raw_probe(128);
  EXPECT_EQ(hook(frame), netsim::TamperVerdict::Pass);
  const auto probe = hula::decode_probe(frame);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().max_util, 10);
  for (const auto& hop : probe.value().trace) EXPECT_LE(hop.util, 10);
}

TEST(ProbeUtilRewriter, ForgesWrappedProbeButStalesDigest) {
  auto hook = make_probe_util_rewriter(10);
  Bytes frame = wrapped_probe(128);
  EXPECT_EQ(hook(frame), netsim::TamperVerdict::Pass);
  const auto msg = core::decode(frame);
  ASSERT_TRUE(msg.ok());
  const auto probe =
      hula::decode_probe(std::get<core::DpDataPayload>(msg.value().payload).inner);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().max_util, 10);
  // Without the port key the rewritten frame cannot carry a valid digest.
  EXPECT_FALSE(core::verify_message(crypto::MacKind::HalfSipHash24, kPortKey, msg.value()));
}

TEST(ProbeUtilRewriter, LeavesNonProbesAlone) {
  auto hook = make_probe_util_rewriter(10);
  Bytes frame = {0x44, 1, 2, 3};  // HULA data magic
  const Bytes original = frame;
  hook(frame);
  EXPECT_EQ(frame, original);
}

TEST(ProbeStripAndForge, RemovesAuthentication) {
  auto hook = make_probe_strip_and_forge(10);
  Bytes frame = wrapped_probe(128);
  EXPECT_EQ(hook(frame), netsim::TamperVerdict::Pass);
  // The frame is now a bare probe — no p4auth framing at all.
  const auto probe = hula::decode_probe(frame);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe.value().max_util, 10);
}

TEST(ProbeDropper, DropsProbesOnly) {
  auto hook = make_probe_dropper();
  Bytes wrapped = wrapped_probe(50);
  EXPECT_EQ(hook(wrapped), netsim::TamperVerdict::Drop);
  Bytes raw = raw_probe(50);
  EXPECT_EQ(hook(raw), netsim::TamperVerdict::Drop);
  Bytes data = {0x44, 1, 2, 3};
  EXPECT_EQ(hook(data), netsim::TamperVerdict::Pass);
}

}  // namespace
}  // namespace p4auth::attacks
