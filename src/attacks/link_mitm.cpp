#include "attacks/link_mitm.hpp"

#include "core/wire.hpp"

namespace p4auth::attacks {
namespace {

namespace hula = apps::hula;

/// Rewrites max_util (and the per-hop utils, to be thorough) in an encoded
/// probe. Returns false if the bytes are not a probe.
bool forge_probe(Bytes& probe_bytes, std::uint8_t forced_util) {
  auto probe = hula::decode_probe(probe_bytes);
  if (!probe.ok()) return false;
  hula::Probe forged = probe.value();
  forged.max_util = forced_util;
  for (auto& hop : forged.trace) hop.util = std::min(hop.util, forced_util);
  probe_bytes = hula::encode_probe(forged).value();  // decoded traces always fit
  return true;
}

bool is_dp_data(const Bytes& frame) {
  return !frame.empty() && frame[0] == static_cast<std::uint8_t>(core::HdrType::DpData);
}

}  // namespace

netsim::TamperHook make_probe_util_rewriter(std::uint8_t forced_util) {
  return [forced_util](Bytes& frame) {
    if (is_dp_data(frame)) {
      auto decoded = core::decode(frame);
      if (decoded.ok()) {
        core::Message msg = decoded.value();
        auto& inner = std::get<core::DpDataPayload>(msg.payload).inner;
        if (forge_probe(inner, forced_util)) {
          frame = core::encode(msg);  // digest is now stale
        }
      }
      return netsim::TamperVerdict::Pass;
    }
    (void)forge_probe(frame, forced_util);  // raw probe: attack succeeds
    return netsim::TamperVerdict::Pass;
  };
}

netsim::TamperHook make_probe_strip_and_forge(std::uint8_t forced_util) {
  return [forced_util](Bytes& frame) {
    if (is_dp_data(frame)) {
      auto decoded = core::decode(frame);
      if (decoded.ok()) {
        Bytes inner = std::get<core::DpDataPayload>(decoded.value().payload).inner;
        if (forge_probe(inner, forced_util)) {
          frame = std::move(inner);  // authentication stripped
        }
      }
      return netsim::TamperVerdict::Pass;
    }
    (void)forge_probe(frame, forced_util);
    return netsim::TamperVerdict::Pass;
  };
}

netsim::TamperHook make_probe_dropper() {
  return [](Bytes& frame) {
    if (is_dp_data(frame)) return netsim::TamperVerdict::Drop;
    if (!frame.empty() && frame[0] == hula::kProbeMagic) return netsim::TamperVerdict::Drop;
    return netsim::TamperVerdict::Pass;
  };
}

}  // namespace p4auth::attacks
