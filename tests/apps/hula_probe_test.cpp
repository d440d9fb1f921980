#include "apps/hula/probe.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace p4auth::apps::hula {
namespace {

Bytes encoded(const Probe& probe) {
  auto frame = encode_probe(probe);
  EXPECT_TRUE(frame.ok());
  return frame.ok() ? std::move(frame).value() : Bytes{};
}

TEST(HulaProbeCodec, RoundTripWithTrace) {
  Probe probe;
  probe.origin_tor = NodeId{5};
  probe.max_util = 42;
  probe.trace = {{NodeId{5}, PortId{0}, 0}, {NodeId{3}, PortId{2}, 17}};
  const Bytes frame = encoded(probe);
  EXPECT_EQ(frame[0], kProbeMagic);
  EXPECT_EQ(frame.size(), 5u + 2 * kHopRecordSize);
  auto decoded = decode_probe(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), probe);
}

TEST(HulaProbeCodec, EmptyTrace) {
  Probe probe;
  probe.origin_tor = NodeId{1};
  auto decoded = decode_probe(encoded(probe));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().trace.empty());
}

TEST(HulaProbeCodec, GrowsEightBytesPerHop) {
  // The Fig 21 mechanism: the digested probe grows linearly with hops.
  Probe probe;
  std::size_t last = encoded(probe).size();
  for (int i = 0; i < 10; ++i) {
    probe.trace.push_back(HopRecord{NodeId{static_cast<std::uint16_t>(i)}, PortId{1}, 5});
    const std::size_t size = encoded(probe).size();
    EXPECT_EQ(size - last, kHopRecordSize);
    last = size;
  }
}

TEST(HulaProbeCodec, RejectsTruncationAndWrongMagic) {
  Probe probe;
  probe.trace = {{NodeId{1}, PortId{1}, 1}};
  Bytes frame = encoded(probe);
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(decode_probe(std::span(frame.data(), len)).ok());
  }
  frame[0] = 0x99;
  EXPECT_FALSE(decode_probe(frame).ok());
}

TEST(HulaProbeCodec, RejectsTrailingBytes) {
  Bytes frame = encoded(Probe{});
  frame.push_back(0);
  EXPECT_FALSE(decode_probe(frame).ok());
}

TEST(HulaProbeCodec, EncodeRefusesMoreThan255Hops) {
  // The hop count is one byte: 256 records used to encode with count 0.
  Probe probe;
  probe.trace.assign(kMaxProbeHops, HopRecord{NodeId{7}, PortId{2}, 3});
  const auto full = encode_probe(probe);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().size(), kProbeHeaderSize + kMaxProbeHops * kHopRecordSize);
  EXPECT_EQ(full.value()[4], kMaxProbeHops);
  ASSERT_TRUE(decode_probe(full.value()).ok());
  EXPECT_EQ(decode_probe(full.value()).value(), probe);

  probe.trace.push_back(HopRecord{NodeId{8}, PortId{2}, 3});
  EXPECT_FALSE(encode_probe(probe).ok());
}

/// The probe decoder as it was before parse_probe existed, field by field
/// through ByteReader: the reference for which frames are accepted.
bool reference_accepts(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const auto magic = r.u8();
  if (!magic.ok() || magic.value() != kProbeMagic) return false;
  if (r.remaining() < 4) return false;
  (void)r.u16();
  (void)r.u8();
  const std::uint8_t hops = r.u8().value();
  for (std::uint8_t i = 0; i < hops; ++i) {
    if (r.remaining() < kHopRecordSize) return false;
    (void)r.view(kHopRecordSize);
  }
  return r.exhausted();
}

void expect_same_verdict(std::span<const std::uint8_t> frame) {
  const auto view = parse_probe(frame);
  const auto probe = decode_probe(frame);
  ASSERT_EQ(view.ok(), reference_accepts(frame)) << to_hex(frame);
  ASSERT_EQ(view.ok(), probe.ok()) << to_hex(frame);
  if (!view.ok()) return;
  EXPECT_EQ(view.value().origin_tor(), probe.value().origin_tor);
  EXPECT_EQ(view.value().max_util(), probe.value().max_util);
  ASSERT_EQ(view.value().hops(), probe.value().trace.size());
  for (std::size_t i = 0; i < view.value().hops(); ++i) {
    EXPECT_EQ(view.value().hop(i), probe.value().trace[i]);
  }
}

TEST(HulaProbeView, AcceptsExactlyWhatDecodeAcceptsUnderMutation) {
  Xoshiro256 rng(0x9e37);
  for (std::size_t hops : {0u, 1u, 2u, 5u, 12u}) {
    Probe probe;
    probe.origin_tor = NodeId{static_cast<std::uint16_t>(rng.next_u32())};
    probe.max_util = static_cast<std::uint8_t>(rng.next_u32());
    for (std::size_t i = 0; i < hops; ++i) {
      probe.trace.push_back(HopRecord{NodeId{static_cast<std::uint16_t>(rng.next_u32())},
                                      PortId{static_cast<std::uint16_t>(rng.next_u32())},
                                      static_cast<std::uint8_t>(rng.next_u32())});
    }
    const Bytes frame = encoded(probe);
    expect_same_verdict(frame);
    // Truncate at every length.
    for (std::size_t len = 0; len < frame.size(); ++len) {
      expect_same_verdict(std::span(frame.data(), len));
    }
    // Flip every bit, one at a time.
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      Bytes flipped = frame;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      expect_same_verdict(flipped);
    }
    // Extend by 1..2 records' worth of random bytes.
    for (std::size_t extra = 1; extra <= 2 * kHopRecordSize; ++extra) {
      Bytes longer = frame;
      for (std::size_t i = 0; i < extra; ++i) {
        longer.push_back(static_cast<std::uint8_t>(rng.next_u32()));
      }
      expect_same_verdict(longer);
    }
  }
}

TEST(HulaProbeView, ForwardedBytesEqualEncodeOfDecodedPlusHop) {
  Xoshiro256 rng(0x51ab);
  for (const std::size_t hops : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{11},
                                 kMaxProbeHops - 1}) {
    Probe probe;
    probe.origin_tor = NodeId{static_cast<std::uint16_t>(rng.next_u32())};
    probe.max_util = static_cast<std::uint8_t>(rng.next_u32());
    for (std::size_t i = 0; i < hops; ++i) {
      probe.trace.push_back(HopRecord{NodeId{static_cast<std::uint16_t>(rng.next_u32())},
                                      PortId{static_cast<std::uint16_t>(rng.next_u32())},
                                      static_cast<std::uint8_t>(rng.next_u32())});
    }
    Bytes frame = encoded(probe);
    // Pads are not validated on the way in; the forwarded copy must still
    // carry them as zero, as encode_probe writes them.
    for (std::size_t pad = kProbeHeaderSize + 5; pad < frame.size(); pad += kHopRecordSize) {
      frame[pad] = 0xAA;
      frame[pad + 2] = 0x01;
    }
    const auto view = parse_probe(frame);
    ASSERT_TRUE(view.ok());

    const HopRecord hop{NodeId{0x0102}, PortId{0x0304}, 0x99};
    const std::uint8_t max_util = static_cast<std::uint8_t>(rng.next_u32());
    Bytes forwarded(3, 0xEE);  // stale contents must not leak through
    write_forwarded_probe(view.value(), max_util, hop, forwarded);

    Probe expected = decode_probe(frame).value();
    expected.max_util = max_util;
    expected.trace.push_back(hop);
    EXPECT_EQ(forwarded, encoded(expected)) << "hops=" << hops;
  }
}

TEST(HulaProbeView, NewProbeEqualsEncodeOfOneRecordProbe) {
  const HopRecord hop{NodeId{9}, kCpuPort, 0};
  Bytes frame{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  write_new_probe(NodeId{9}, hop, frame);
  EXPECT_EQ(frame, encoded(Probe{NodeId{9}, 0, {hop}}));
  EXPECT_EQ(frame.size(), 13u);
}

TEST(HulaDataCodec, RoundTrip) {
  DataPacket packet{NodeId{5}, 0xABCDEF0123456789ull, 1200};
  auto decoded = decode_data(encode_data(packet));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), packet);
}

TEST(HulaDataCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_data(Bytes{kDataMagic, 1}).ok());
  EXPECT_FALSE(decode_data(Bytes{0x00}).ok());
  EXPECT_FALSE(decode_data({}).ok());
}

TEST(HulaProbeGen, SingleMagicByte) {
  EXPECT_EQ(encode_probe_gen(), Bytes{kProbeGenMagic});
}

}  // namespace
}  // namespace p4auth::apps::hula
