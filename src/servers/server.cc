#include "src/servers/server.h"

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/servers/proto.h"

namespace newtos::servers {

Server::Server(NodeEnv* env, std::string name, sim::SimCore* core)
    : env_(env), name_(std::move(name)), core_(core) {}

Server::~Server() = default;

sim::Time Server::ClockAdapter::now() const { return s_->sim().now(); }

net::TimerService::TimerId Server::TimerAdapter::schedule(
    sim::Time delay, std::function<void()> fn) {
  Server* s = s_;
  const std::uint32_t inc = s->incarnation_;
  return s->sim().after(delay, [s, inc, fn = std::move(fn)] {
    // Timers die with the incarnation that armed them.
    if (!s->alive_ || s->hung_ || inc != s->incarnation_) return;
    s->post_control([fn](sim::Context&) { fn(); }, 150);
  });
}

void Server::TimerAdapter::cancel(TimerId id) { s_->sim().cancel(id); }

void Server::charge(sim::Context& ctx, sim::Cycles c) const {
  ctx.charge(static_cast<sim::Cycles>(static_cast<double>(c) *
                                      env_->knobs.cost_scale * slowdown_));
}

// --- lifecycle -----------------------------------------------------------------------

void Server::boot(bool restart) {
  assert(!alive_);
  alive_ = true;
  hung_ = false;
  announced_ = false;
  sleeping_ = true;
  pump_scheduled_ = false;
  slowdown_ = 1.0;
  drop_work_ = false;
  ++incarnation_;
  start(restart);
}

void Server::kill() {
  if (!alive_) return;
  alive_ = false;
  hung_ = false;
  on_killed();
  // The process is gone: its subscriptions, publications and pending work
  // evaporate.  Queues are node-owned and merely reset.
  for (auto id : subs_) env_->registry->unsubscribe(id);
  subs_.clear();
  for (auto& key : published_keys_) env_->registry->unpublish(key);
  published_keys_.clear();
  env_->channels->revoke_all(name_);
  for (auto& in : in_queues_) in.queue->reset();
  in_queues_.clear();
  outs_.clear();
  control_.clear();
  rdb_ = chan::RequestDb{};
  if (env_->report_crash) env_->report_crash(this);
}

void Server::hang() { hung_ = true; }

void Server::post_heartbeat(std::function<void()> ack) {
  if (!alive_ || hung_) return;  // a dead or wedged server cannot answer
  post_control([ack = std::move(ack)](sim::Context&) { ack(); }, 120);
}

void Server::post_kernel_msg(std::function<void(sim::Context&)> fn,
                             sim::Cycles extra_cost) {
  if (!alive_) return;
  const sim::Cycles cost = env_->kernel->receive(sizeof(chan::Message)) +
                           extra_cost;
  control_.emplace_back(std::move(fn), cost);
  wake();
}

void Server::post_control(std::function<void(sim::Context&)> fn,
                          sim::Cycles cost) {
  if (!alive_) return;
  control_.emplace_back(std::move(fn), cost);
  wake();
}

void Server::on_peer_up(const std::string&, bool, sim::Context&) {}
void Server::on_peer_down(const std::string&, sim::Context&) {}

// --- channel plumbing -----------------------------------------------------------------

chan::Queue* Server::expose_in_queue(const std::string& from,
                                     std::size_t capacity) {
  const std::string qname = from + ">" + name_;
  chan::Queue* q = env_->get_queue(qname, capacity);
  q->reset();
  q->doorbell().bind([this] { wake(); });
  q->doorbell().arm();
  in_queues_.push_back(InQueue{from, q});
  // Export to the producer and publish the credential; the producer's
  // subscription to "chan.<qname>" fires and it attaches (Section IV-C).
  const auto cred = env_->channels->export_queue(name_, from, q);
  const std::string key = "chan." + qname;
  env_->registry->publish(key, chan::Published{name_, cred});
  published_keys_.push_back(key);
  return q;
}

void Server::connect_out(const std::string& peer) {
  if (outs_.count(peer)) return;
  outs_[peer] = OutPeer{};
  // Attach to the peer's in-queue for us when it (re)appears.
  subs_.push_back(env_->registry->subscribe(
      "chan." + name_ + ">" + peer,
      [this, peer](const std::string&, const chan::Published& pub, bool up,
                   bool /*replay*/) {
        if (!alive_) return;
        if (up) {
          chan::Queue* q = env_->channels->attach(name_, pub.value);
          outs_[peer].queue = q;
        } else {
          outs_[peer].queue = nullptr;
        }
      }));
  // Track the peer's lifecycle announcements.
  subs_.push_back(env_->registry->subscribe(
      "server." + peer + ".up",
      [this, peer](const std::string&, const chan::Published& pub, bool up,
                   bool replay) {
        if (!alive_) return;
        // A replayed announcement is not a live restart transition: recovery
        // actions (state re-store, resubmission) must not fire from it.
        const bool restarted = pub.value != 0 && !replay;
        outs_[peer].up = up;
        post_control(
            [this, peer, up, restarted](sim::Context& ctx) {
              if (up) {
                on_peer_up(peer, restarted, ctx);
              } else {
                on_peer_down(peer, ctx);
              }
            },
            200);
      }));
}

bool Server::peer_ready(const std::string& peer) const {
  auto it = outs_.find(peer);
  return it != outs_.end() && it->second.up && it->second.queue != nullptr;
}

bool Server::send_to(const std::string& peer, const chan::Message& m,
                     sim::Context& ctx) {
  // Gate on the attached queue only, not on the peer's "up" announcement: a
  // restarting server must be able to talk to the storage server (and
  // receive its reply) *before* it announces itself recovered.
  auto it = outs_.find(peer);
  if (it == outs_.end() || it->second.queue == nullptr) return false;
  if (env_->knobs.ipc == IpcMode::kKernelSync) {
    // Classic path: trap into the kernel, copy, context switch (Table II
    // line 1 runs everything on one core, so the switch is real).
    charge(ctx, env_->kernel->sync_send_same_core(sizeof m));
  } else {
    charge(ctx, sim().costs().channel_enqueue);
  }
  return it->second.queue->try_send(m);
}

void Server::send_to_all(const std::vector<std::string>& peers,
                         const chan::Message& m, sim::Context& ctx) {
  for (const auto& peer : peers) send_to(peer, m, ctx);
}

void Server::announce(bool restarted) {
  announced_ = true;
  const std::string key = "server." + name_ + ".up";
  env_->registry->publish(key,
                          chan::Published{name_, restarted ? 1ull : 0ull});
  published_keys_.push_back(key);
}

// --- event pump ------------------------------------------------------------------------

void Server::wake() {
  if (!alive_ || hung_ || pump_scheduled_) return;
  pump_scheduled_ = true;
  core_->exec(sim().now(), [this, inc = incarnation_](sim::Context& ctx) {
    if (!alive_ || hung_ || inc != incarnation_) {
      pump_scheduled_ = false;
      return;
    }
    pump(ctx);
  });
}

namespace {
const bool g_trace = std::getenv("NEWTOS_TRACE") != nullptr;
}  // namespace

void Server::pump(sim::Context& ctx) {
  if (g_trace)
    std::fprintf(stderr, "[%.6f] pump %s/%s\n", sim().now() / 1e9,
                 env_->node_name.c_str(), name_.c_str());
  if (sleeping_) {
    // The kernel restores our user context after MWAIT (Section IV-B).
    charge(ctx, sim().costs().mwait_wakeup);
    sleeping_ = false;
    ++wakeups_;
  }

  current_ctx_ = &ctx;
  int handled = 0;
  while (handled < kBatch) {
    if (!control_.empty()) {
      auto [fn, cost] = std::move(control_.front());
      control_.pop_front();
      charge(ctx, cost);
      fn(ctx);
      ++handled;
      ++messages_handled_;
      if (!alive_ || hung_) {
        current_ctx_ = nullptr;
        pump_scheduled_ = false;
        return;
      }
      continue;
    }
    bool got = false;
    bool died = false;
    for (std::size_t i = 0; i < in_queues_.size(); ++i) {
      chan::Message m;
      if (!in_queues_[i].queue->try_recv(m)) continue;
      dispatch(in_queues_[i].from, m, ctx);
      ++handled;
      got = true;
      if (!alive_ || hung_) {  // killed ourselves while handling a message
        died = true;
        break;
      }
      if (handled >= kBatch) break;
    }
    if (died) {
      current_ctx_ = nullptr;
      pump_scheduled_ = false;
      return;
    }
    if (!got) break;
  }
  current_ctx_ = nullptr;

  // More work pending?  Yield the core briefly (other events interleave) and
  // continue; otherwise arm the doorbells and halt the core.
  bool pending = !control_.empty();
  for (auto& in : in_queues_) pending = pending || !in.queue->empty();
  if (pending) {
    core_->exec(sim().now(), [this, inc = incarnation_](sim::Context& c2) {
      if (!alive_ || hung_ || inc != incarnation_) {
        pump_scheduled_ = false;
        return;
      }
      pump(c2);
    });
  } else {
    enter_idle(ctx);
  }
}

void Server::dispatch(const std::string& from, const chan::Message& m,
                      sim::Context& ctx) {
  if (env_->knobs.ipc == IpcMode::kKernelSync) {
    charge(ctx,
           env_->kernel->receive(sizeof m) + sim().costs().context_switch);
  } else {
    charge(ctx, sim().costs().channel_dequeue + sim().costs().cache_line_pull);
  }
  if (g_trace)
    std::fprintf(stderr, "[%.6f]   msg %s->%s op=%u\n", sim().now() / 1e9,
                 from.c_str(), name_.c_str(), m.opcode);
  ++messages_handled_;
  if (drop_work_) return;
  if (m.opcode == kWorkProbe) {
    answer_probe(m, ctx);
  } else if (m.opcode == kStoreAck) {
    // The storage server holds its own copy of a store_put value: free the
    // put's chunk.  An ack this incarnation did not request (its put died
    // with a predecessor) is ignored.
    if (rdb_.complete(m.req_id)) env_->pools->release(m.ptr);
  } else {
    on_message(from, m, ctx);
  }
}

void Server::drain_from(const std::string& peer, sim::Context& ctx) {
  for (const auto& in : in_queues_) {
    if (in.from != peer) continue;
    chan::Queue* q = in.queue;
    chan::Message m;
    // A handler that kills this server clears in_queues_: stop there.
    while (alive_ && !hung_ && q->try_recv(m)) dispatch(peer, m, ctx);
    return;
  }
}

void Server::answer_probe(const chan::Message& m, sim::Context& ctx) {
  // The canary quantum makes the ack's latency scale with any slowdown of
  // this server (see CostModel::probe_canary).  Messages sent inside a
  // handler are delivered at the task's START time, so the ack goes out
  // from a follow-up task on this core, i.e. only after every cycle charged
  // so far (scaled by the slowdown) has elapsed.  It is dropped if the
  // server dies, hangs or reincarnates first.
  charge(ctx, sim().costs().probe_canary);
  core_->exec(sim().now(), [this, inc = incarnation_,
                            cookie = m.req_id](sim::Context& c) {
    if (!alive_ || hung_ || inc != incarnation_) return;
    chan::Message ack;
    ack.opcode = kWorkProbeAck;
    ack.req_id = cookie;
    send_to(kRsName, ack, c);
  });
}

bool Server::store_put(chan::Pool* pool, std::uint32_t key,
                       std::span<const std::byte> bytes, sim::Context& ctx) {
  chan::RichPtr chunk = pool->alloc(static_cast<std::uint32_t>(bytes.size()));
  if (!chunk.valid()) return false;
  auto view = pool->write_view(chunk);
  std::copy(bytes.begin(), bytes.end(), view.begin());
  chan::Message m;
  m.opcode = kStorePut;
  m.arg0 = key;
  m.req_id = rdb_.add(kStoreName, 0, {});
  m.ptr = chunk;
  if (send_to(kStoreName, m, ctx)) return true;
  rdb_.complete(m.req_id);
  pool->release(chunk);
  return false;
}

void Server::enter_idle(sim::Context& ctx) {
  pump_scheduled_ = false;
  for (auto& in : in_queues_) in.queue->doorbell().arm();
  // Entering kernel-assisted MWAIT costs a trap.
  charge(ctx, env_->kernel->mwait_enter());
  sleeping_ = true;

  // Re-check: a message may have raced in between our last scan and arming
  // the doorbells (the classic sleep/wakeup race, resolved by MONITOR
  // semantics: re-inspect after arming).
  bool pending = !control_.empty();
  for (auto& in : in_queues_) pending = pending || !in.queue->empty();
  if (pending) wake();
}

}  // namespace newtos::servers
