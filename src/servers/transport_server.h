// What the TCP replicas and the UDP server share on the receive side: the
// kL4Rx leg from IP, and the per-shard RX fast path (src/net/ip_fastpath.h)
// that multi-queue RSS drivers post their kDrvRx messages to directly (the
// UDP server is shard 0 and takes queue 0's UDP frames).
//
// Each subclass supplies deliver_l4() — its per-packet charging rule and
// engine input — and this class feeds it from both legs: from IP with the
// IP work already done, and from a driver after running the hoisted IP
// receive work on this shard's core.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/net/ip_fastpath.h"
#include "src/servers/proto.h"
#include "src/servers/server.h"

namespace newtos::servers {

class TransportServer : public Server {
 public:
  int shard() const { return shard_; }

  // Multi-queue RSS: this replica owns one NIC RX queue per driver and runs
  // the hoisted IP receive work on the frames the drivers post to it
  // directly (kDrvRx).  Must be called before boot.
  void enable_rx_fastpath(net::IpFastPath::Config cfg,
                          std::vector<std::string> driver_names);
  // Fast-path statistics (null when the fast path is off), published as
  // per-shard node stats and the bench's per-shard inbound frame count.
  const net::IpFastPath* fastpath() const { return fastpath_.get(); }

 protected:
  // `proto` is 'T' or 'U'; the server is named after its replica.
  TransportServer(NodeEnv* env, sim::SimCore* core, char proto, int shard);

  // Hands validated packets to the engine, charging the transport's
  // receive cost: one packet, or a TCP GRO aggregate.
  virtual void deliver_l4(std::span<const net::L4Packet> segs) = 0;

  // From start(): exposes the drivers' in-queues and builds the fast path
  // (no-op unless enable_rx_fastpath was called).
  void start_rx_fastpath();
  // From on_killed(): held frames (pending PF verdicts) back to the pool.
  void stop_rx_fastpath() { fastpath_.reset(); }
  // The receive-side messages: kL4Rx from IP, kDrvRx from a driver, and
  // kPfVerdict/kPfCacheInval from PF.  False for any other opcode.
  bool on_rx_message(const chan::Message& m, sim::Context& ctx);
  // From on_peer_up(): PF (re)appeared, so fast-path queries the old
  // incarnation never answered are repeated and their held frames drain.
  // True when `peer` was PF and the fast path is on.
  bool on_pf_up(const std::string& peer);

  const int shard_;

 private:
  // Frames come back into this replica's custody: return their loans
  // before processing, so a crash from here on is covered by the engine
  // teardown path, not the ledger.
  void return_loans(std::span<const WireRxFrame> recs);
  void release(const chan::RichPtr& frame);

  const char proto_;
  bool rx_fastpath_ = false;
  net::IpFastPath::Config fastpath_cfg_;
  std::vector<std::string> fastpath_drivers_;
  std::unique_ptr<net::IpFastPath> fastpath_;
};

}  // namespace newtos::servers
