#include "src/servers/transport_server.h"

namespace newtos::servers {

TransportServer::TransportServer(NodeEnv* env, sim::SimCore* core, char proto,
                                 int shard)
    : Server(env, transport_shard_name(proto, shard), core),
      shard_(shard),
      proto_(proto) {}

void TransportServer::enable_rx_fastpath(
    net::IpFastPath::Config cfg, std::vector<std::string> driver_names) {
  rx_fastpath_ = true;
  fastpath_cfg_ = std::move(cfg);
  if (proto_ == 'U') fastpath_cfg_.gro = false;  // GRO is a TCP-only merge
  fastpath_drivers_ = std::move(driver_names);
}

void TransportServer::release(const chan::RichPtr& frame) {
  chan::Pool* p = env().pools->find(frame.pool);
  if (p != nullptr) p->release(frame);
}

void TransportServer::return_loans(std::span<const WireRxFrame> recs) {
  for (const auto& rec : recs) {
    chan::Pool* p = env().pools->find(rec.frame.pool);
    if (p != nullptr) {
      p->note_return(rec.frame, transport_borrower(proto_, shard_));
    }
  }
}

void TransportServer::start_rx_fastpath() {
  if (!rx_fastpath_) return;
  // One RX queue per driver homes on this shard: the drivers post those
  // frames here directly, so each needs an in-queue.
  for (const auto& d : fastpath_drivers_) expose_in_queue(d, 512);
  net::IpFastPath::Env fe;
  fe.pools = env().pools;
  fe.deliver = [this](std::uint8_t, std::span<const net::L4Packet> segs) {
    deliver_l4(segs);
  };
  fe.pf_check = [this](const net::PfQuery& q, std::uint64_t cookie) {
    chan::Message m;
    m.opcode = kPfCheck;
    put_inline(m, WirePfQuery{cookie, q});
    send_to(kPfName, m, cur());
    // PF down: the query stays pending; resubmit_pf on its return repeats
    // it and the held frames drain then.
  };
  fe.fallback = [this](int ifindex, const chan::RichPtr& frame) {
    chan::Message m;
    m.opcode = kDrvRx;
    put_inline(m, WireRxFrame{frame});
    m.arg1 = static_cast<std::uint64_t>(ifindex);
    // IP is down: nobody is left to judge the frame — receive pool.
    if (!send_to(kIpName, m, cur())) release(frame);
  };
  fe.release = [this](const chan::RichPtr& frame) { release(frame); };
  fastpath_ = std::make_unique<net::IpFastPath>(std::move(fe), fastpath_cfg_);
}

bool TransportServer::on_rx_message(const chan::Message& m,
                                    sim::Context& ctx) {
  switch (m.opcode) {
    case kL4Rx: {
      const auto recs = decode_records<WireRxFrame>(*env().pools, m);
      // Only a packed aggregate's frames travel on loan from IP.
      if ((m.flags & kMsgPacked) != 0) return_loans(recs);
      std::vector<net::L4Packet> segs(recs.size());
      for (std::size_t i = 0; i < recs.size(); ++i) {
        segs[i] = net::L4Packet{recs[i].frame, recs[i].l4_offset,
                                recs[i].l4_length, unpack_hi(m.arg1),
                                unpack_lo(m.arg1)};
      }
      deliver_l4(segs);
      return true;
    }
    case kDrvRx: {
      // RSS fast path: a queue's frames straight from the driver.  The IP
      // work those frames skipped — validation, GRO, the PF consultation —
      // is paid here, on this shard's core, which is the whole point: it
      // spreads across replicas instead of serializing on the central IP
      // core.
      const auto recs = decode_records<WireRxFrame>(*env().pools, m);
      charge(ctx, sim().costs().ip_packet_proc *
                      static_cast<sim::Cycles>(recs.size()));
      return_loans(recs);
      std::vector<chan::RichPtr> frames;
      frames.reserve(recs.size());
      for (const auto& rec : recs) frames.push_back(rec.frame);
      if (fastpath_) {
        fastpath_->input_burst(static_cast<int>(m.arg1), frames);
      } else {
        for (const auto& f : frames) release(f);
      }
      return true;
    }
    case kPfVerdict:
      for (const auto& v : decode_records<WirePfVerdict>(*env().pools, m)) {
        charge(ctx, 120);
        if (fastpath_) fastpath_->pf_verdict(v.cookie, v.allow != 0);
      }
      return true;
    case kPfCacheInval:
      // The rule set changed (or PF restarted): every cached verdict is
      // stale.  Pending queries were answered under submission order, so
      // held frames still drain correctly.
      if (fastpath_) fastpath_->invalidate_cache();
      return true;
    default:
      return false;
  }
}

bool TransportServer::on_pf_up(const std::string& peer) {
  if (peer != kPfName || !fastpath_) return false;
  fastpath_->resubmit_pf();
  return true;
}

}  // namespace newtos::servers
