#include "src/chan/pool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <new>
#include <utility>

#include <sys/mman.h>

namespace newtos::chan {

namespace {

std::uint64_t loan_key(std::uint32_t borrower, std::uint32_t base) {
  return (std::uint64_t{borrower} << 32) | base;
}

}  // namespace

Pool::Pool(std::uint32_t id, std::string name, std::size_t size_bytes)
    : id_(id), name_(std::move(name)), size_(size_bytes) {
  assert(id_ != 0 && "pool id 0 is reserved for the null rich pointer");
  if (size_ == 0) return;
  // Not the heap: after a large free glibc serves pool-sized requests from
  // recycled memory that calloc must clear, so resident size would depend
  // on which pools came and went before.  A fresh mapping is always
  // demand-zero.
  void* mem = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc();
  // Commit page by page on every host: with transparent huge pages on,
  // one written byte could otherwise commit 2 MB.
  madvise(mem, size_, MADV_NOHUGEPAGE);
  bytes_ = static_cast<std::byte*>(mem);
}

Pool::~Pool() {
  if (bytes_ != nullptr) munmap(bytes_, size_);
}

std::uint32_t Pool::round_chunk(std::uint32_t len) {
  // 64-byte granularity keeps chunks cache-line aligned and makes the
  // segregated free lists effective.
  const std::uint64_t rounded =
      (std::uint64_t{len} + kGranule - 1) & ~std::uint64_t{kGranule - 1};
  return rounded > UINT32_MAX ? 0 : static_cast<std::uint32_t>(rounded);
}

Pool::Chunk* Pool::chunk_at(std::uint32_t offset) {
  return const_cast<Chunk*>(std::as_const(*this).chunk_at(offset));
}

const Pool::Chunk* Pool::chunk_at(std::uint32_t offset) const {
  if (offset % kGranule != 0) return nullptr;
  const std::uint32_t g = offset / kGranule;
  if (g >= headers_.size() || headers_[g].refs == 0) return nullptr;
  return &headers_[g];
}

RichPtr Pool::alloc(std::uint32_t length) {
  if (length == 0) return kNullRichPtr;
  const std::uint32_t rounded = round_chunk(length);
  const std::uint32_t cls = rounded / kGranule;

  std::uint32_t offset;
  if (cls < free_lists_.size() && !free_lists_[cls].empty()) {
    offset = free_lists_[cls].back();
    free_lists_[cls].pop_back();
  } else {
    if (rounded == 0 || rounded > size_ - bump_) {
      ++failed_allocs_;
      return kNullRichPtr;
    }
    offset = bump_;
    bump_ += rounded;
    headers_.resize(bump_ / kGranule);
    owner_.resize(bump_ / kGranule, offset / kGranule);
  }

  headers_[offset / kGranule] = Chunk{length, 1};
  ++chunks_live_;
  bytes_live_ += length;
  ++total_allocs_;
  return RichPtr{id_, offset, length, generation_};
}

void Pool::addref(const RichPtr& p) {
  if (p.generation != generation_) return;
  Chunk* c = chunk_at(p.offset);
  assert(c != nullptr && "addref on a freed chunk");
  if (c != nullptr) ++c->refs;
}

bool Pool::release(const RichPtr& p) {
  if (p.generation != generation_) return false;  // stale: pool was reset
  Chunk* c = chunk_at(p.offset);
  if (c == nullptr) return false;
  if (--c->refs > 0) return false;
  bytes_live_ -= c->length;
  const std::uint32_t cls = round_chunk(c->length) / kGranule;
  if (cls >= free_lists_.size()) free_lists_.resize(cls + 1);
  free_lists_[cls].push_back(p.offset);
  *c = Chunk{};
  --chunks_live_;
  return true;
}

bool Pool::live(const RichPtr& p) const {
  if (p.pool != id_ || p.generation != generation_) return false;
  const Chunk* c = chunk_at(p.offset);
  return c != nullptr && c->length >= p.length;
}

std::uint32_t Pool::find_containing(const RichPtr& p) const {
  if (p.pool != id_ || p.generation != generation_ || !p.valid())
    return kNoChunk;
  const std::uint32_t g = p.offset / kGranule;
  if (g >= owner_.size()) return kNoChunk;
  const std::uint32_t base = owner_[g];
  const Chunk& c = headers_[base];
  const std::uint64_t start = static_cast<std::uint64_t>(base) * kGranule;
  if (c.refs == 0 ||
      static_cast<std::uint64_t>(p.offset) + p.length > start + c.length)
    return kNoChunk;
  return base * kGranule;
}

RichPtr Pool::containing(const RichPtr& p) const {
  const std::uint32_t base = find_containing(p);
  if (base == kNoChunk) return kNullRichPtr;
  return RichPtr{id_, base, headers_[base / kGranule].length, generation_};
}

std::size_t Pool::loan_bucket(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of the product depend on every key bit.
  const int bits = std::countr_zero(ledger_.size());
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - bits));
}

std::size_t Pool::find_loan(std::uint64_t key) const {
  const std::size_t mask = ledger_.size() - 1;
  std::size_t b = loan_bucket(key);
  while (ledger_[b].count != 0 && ledger_[b].key != key) b = (b + 1) & mask;
  return b;
}

void Pool::erase_loan(std::size_t bucket) {
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home bucket lies cyclically after the hole.
  const std::size_t mask = ledger_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t b = (hole + 1) & mask; ledger_[b].count != 0;
       b = (b + 1) & mask) {
    const std::size_t home = loan_bucket(ledger_[b].key);
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      ledger_[hole] = ledger_[b];
      hole = b;
    }
  }
  ledger_[hole] = Loan{};
  --ledger_used_;
}

void Pool::grow_ledger() {
  std::vector<Loan> old = std::move(ledger_);
  ledger_.assign(old.empty() ? 64 : old.size() * 2, Loan{});
  for (const Loan& l : old) {
    if (l.count != 0) ledger_[find_loan(l.key)] = l;
  }
}

void Pool::note_borrow(const RichPtr& p, std::uint32_t borrower) {
  const std::uint32_t base = find_containing(p);
  if (base == kNoChunk) return;
  if (2 * (ledger_used_ + 1) > ledger_.size()) grow_ledger();
  const std::uint64_t key = loan_key(borrower, base);
  Loan& l = ledger_[find_loan(key)];
  if (l.count == 0) {
    l.key = key;
    ++ledger_used_;
  }
  ++l.count;
  ++borrows_outstanding_;
}

bool Pool::note_return(const RichPtr& p, std::uint32_t borrower) {
  if (p.pool != id_ || p.generation != generation_) return false;
  if (ledger_used_ == 0) return false;
  const std::uint32_t base = find_containing(p);
  if (base == kNoChunk) return false;
  const std::size_t b = find_loan(loan_key(borrower, base));
  if (ledger_[b].count == 0) return false;
  if (--ledger_[b].count == 0) erase_loan(b);
  --borrows_outstanding_;
  return true;
}

std::size_t Pool::reclaim(std::uint32_t borrower) {
  // Take the borrower's loans off the ledger first: release() mutates the
  // chunk headers but not the ledger.
  std::vector<Loan> loans;
  for (const Loan& l : ledger_) {
    if (l.count != 0 && (l.key >> 32) == borrower) loans.push_back(l);
  }
  for (const Loan& l : loans) erase_loan(find_loan(l.key));
  std::sort(loans.begin(), loans.end(),
            [](const Loan& a, const Loan& b) { return a.key < b.key; });
  std::size_t reclaimed = 0;
  for (const Loan& l : loans) {
    const auto offset = static_cast<std::uint32_t>(l.key);
    borrows_outstanding_ -= l.count;
    for (std::uint32_t k = 0; k < l.count; ++k) {
      const Chunk* c = chunk_at(offset);
      if (c == nullptr) break;  // already gone; nothing stranded
      release(RichPtr{id_, offset, c->length, generation_});
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::vector<std::uint32_t> Pool::borrowers() const {
  std::vector<std::uint32_t> out;
  for (const Loan& l : ledger_) {
    if (l.count != 0) out.push_back(static_cast<std::uint32_t>(l.key >> 32));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::span<std::byte> Pool::write_view(const RichPtr& p) {
  assert(live(p) && "write through a stale or foreign rich pointer");
  return {bytes_ + p.offset, p.length};
}

bool Pool::dma_write(const RichPtr& p, std::span<const std::byte> data) {
  if (p.pool != id_ || p.generation != generation_) return false;
  if (data.size() > p.length) return false;
  if (static_cast<std::size_t>(p.offset) + p.length > size_) return false;
  std::copy(data.begin(), data.end(), bytes_ + p.offset);
  return true;
}

std::span<const std::byte> Pool::read_view(const RichPtr& p) const {
  if (p.pool != id_ || p.generation != generation_) return {};
  if (static_cast<std::size_t>(p.offset) + p.length > size_) return {};
  return {bytes_ + p.offset, p.length};
}

void Pool::reset() {
  headers_.clear();
  owner_.clear();
  free_lists_.clear();
  chunks_live_ = 0;
  std::fill(ledger_.begin(), ledger_.end(), Loan{});
  ledger_used_ = 0;
  borrows_outstanding_ = 0;
  bump_ = 0;
  bytes_live_ = 0;
  ++generation_;
}

Pool& PoolRegistry::create(const std::string& owner, const std::string& name,
                           std::size_t size_bytes) {
  const auto id = static_cast<std::uint32_t>(pools_.size() + 1);
  pools_.push_back(std::make_unique<Pool>(id, owner + "/" + name, size_bytes));
  return *pools_.back();
}

void PoolRegistry::destroy(std::uint32_t id) {
  if (id != 0 && id <= pools_.size()) pools_[id - 1].reset();
}

Pool* PoolRegistry::find(std::uint32_t id) {
  return id == 0 || id > pools_.size() ? nullptr : pools_[id - 1].get();
}

const Pool* PoolRegistry::find(std::uint32_t id) const {
  return id == 0 || id > pools_.size() ? nullptr : pools_[id - 1].get();
}

Pool* PoolRegistry::find_by_name(const std::string& name) {
  for (auto& pool : pools_) {
    if (pool == nullptr) continue;
    const std::string& full = pool->name();  // "<owner>/<name>"
    if (full == name) return pool.get();
    const auto slash = full.rfind('/');
    if (slash != std::string::npos && full.compare(slash + 1, std::string::npos,
                                                   name) == 0) {
      return pool.get();
    }
  }
  return nullptr;
}

std::span<const std::byte> PoolRegistry::read(const RichPtr& p) const {
  const Pool* pool = find(p.pool);
  return pool ? pool->read_view(p) : std::span<const std::byte>{};
}

bool PoolRegistry::release(const RichPtr& p) {
  Pool* pool = find(p.pool);
  if (pool == nullptr) return false;
  const RichPtr full = pool->containing(p);
  if (!full.valid()) return false;
  pool->release(full);
  return true;
}

std::size_t PoolRegistry::count() const {
  std::size_t n = 0;
  for (const auto& pool : pools_) n += pool != nullptr;
  return n;
}

std::vector<Pool*> PoolRegistry::all() {
  std::vector<Pool*> out;
  out.reserve(pools_.size());
  for (auto& pool : pools_) {
    if (pool != nullptr) out.push_back(pool.get());
  }
  return out;
}

}  // namespace newtos::chan
