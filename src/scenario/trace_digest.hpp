// Order-sensitive FNV-1a over the machine-readable part of a trace stream.
// Message strings are excluded, so cosmetic format changes leave golden
// digests alone while any behavioural change (event order, timing, frame
// contents) shifts them.  The experiment driver keeps one per world view: a
// serial run reports its single digest as is, a sharded run folds one per
// shard in shard order.
// A commutative companion (xsum) hashes each record independently and sums,
// so streams that carry the same records in different order — serial vs
// sharded — can still be compared for physical equality.
#pragma once

#include <cstdint>

#include "phy/frame.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

class TraceDigest {
public:
  void feed(const TraceRecord& r) {
    if (r.event == TraceEvent::kGeneric) return;
    // Each field feeds both accumulators: h_ directly (the byte stream is
    // unchanged from before xsum existed, so golden digests stay pinned) and
    // a fresh per-record hash rh for the commutative companion.
    std::uint64_t rh = kFnvOffset;
    const auto put = [&](std::uint64_t v) noexcept {
      mix(h_, v);
      mix(rh, v);
    };
    put(static_cast<std::uint64_t>(r.at.nanoseconds()));
    put(static_cast<std::uint64_t>(r.event));
    put(r.node);
    put(r.flag ? 1u : 0u);
    put(r.aux);
    if (r.frame != nullptr) {
      put(static_cast<std::uint64_t>(r.frame->type));
      put(r.frame->transmitter);
      put(r.frame->dest);
      put(r.frame->seq);
      put(r.frame->wire_bytes());
      put(static_cast<std::uint64_t>(r.frame->duration.nanoseconds()));
      for (const NodeId rcv : r.frame->receivers) put(rcv);
    }
    xsum_ += rh;  // wrapping, order-independent
  }

  // Fold a raw value — sharded runs combine per-shard digests with
  // this, in shard order.
  void feed_value(std::uint64_t v) noexcept { mix(h_, v); }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

  // Commutative companion digest: the wrapping sum of per-record hashes.
  // Two streams carrying the same *multiset* of records agree on xsum() even
  // when record order differs — how a sharded run (records interleaved by
  // shard) is compared against the serial engine, whose single stream orders
  // the same records globally.  Per-shard xsums combine by addition.
  [[nodiscard]] std::uint64_t xsum() const noexcept { return xsum_; }
  void add_xsum(std::uint64_t v) noexcept { xsum_ += v; }

private:
  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

  static void mix(std::uint64_t& h, std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_{kFnvOffset};
  std::uint64_t xsum_{0};
};

}  // namespace rmacsim
