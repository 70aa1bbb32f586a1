// The UDP server: hosts the UDP engine.  Recoverable state (Table I): the
// socket 4-tuples, stored on every change (they change rarely) and reloaded
// on restart, so a crash is transparent to applications — at worst a
// datagram is duplicated or lost, which UDP callers tolerate by contract.
//
// Unlike TCP, UDP runs as one server on one core in every arrangement: it
// owns every socket and port, so nothing is replicated.  With multi-queue
// RSS it still takes queue 0's UDP frames straight from the drivers; the
// other queues' UDP frames reach it through IP.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/chan/cookie_ring.h"
#include "src/net/udp.h"
#include "src/servers/proto.h"
#include "src/servers/transport_server.h"

namespace newtos::servers {

class UdpServer : public TransportServer {
 public:
  // `src_for` selects a source address for unbound sockets (static routing
  // knowledge baked in at build time, like an /etc/ip config).
  UdpServer(NodeEnv* env, sim::SimCore* core,
            std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for);
  // Teardown: releases engine queues and in-flight descriptors straight
  // into the pools (no handler context for done-reports).
  ~UdpServer() override;

  net::UdpEngine* engine() { return engine_.get(); }

  // Socket control entry point shared by the channel path (on_message) and
  // the direct kernel-IPC path (Table II line 2).  `reply` delivers the
  // kSockReply message to the requester.
  void handle_sock_request(const chan::Message& m, sim::Context& ctx,
                           const std::function<void(const chan::Message&)>&
                               reply);

 protected:
  void start(bool restart) override;
  void on_message(const std::string& from, const chan::Message& m,
                  sim::Context& ctx) override;
  void on_peer_up(const std::string& peer, bool restarted,
                  sim::Context& ctx) override;
  void on_killed() override;
  // One udp_packet_proc per datagram.
  void deliver_l4(std::span<const net::L4Packet> segs) override;

 private:
  void build_engine();
  // Stores the socket table (every change, and after a storage restart).
  void save_sockets(sim::Context& ctx);

  std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for_;
  std::unique_ptr<net::UdpEngine> engine_;
  chan::Pool* pool_ = nullptr;
  struct PendingTx {
    chan::RichPtr desc;
    std::uint64_t arg0 = 0;  // src/dst for resubmission
  };
  // kIpTx descriptors in flight by engine cookie; freed on kIpTxDone (its
  // own and everything below the done's mark).
  chan::CookieRing<PendingTx> pending_tx_;
};

}  // namespace newtos::servers
