// Structure-of-arrays candidate storage for the fast Van Ginneken kernel.
//
// The fast kernel's hot loops — the fused dead+Pareto prune, the lazy
// wire-offset flush, and the bucket-major merge — each stream over ONE
// field of every candidate at a time. The pooled AoS lists
// (std::vector<VgCand>, 48-byte elements) made every such sweep strided;
// an SoAList stores each DP field in its own contiguous lane inside one
// 64-byte-aligned heap block:
//
//   [ load | slack | current | noise_slack | dhat | plan(PlanRef, u32) ]
//
// with every lane start rounded up to the 64-byte alignment, so the sweeps
// of core/soa_sweeps.hpp are unit-stride, branch-light, and vectorizable.
// Blocks are recycled whole through SoAPool, so steady-state DP makes no
// allocator calls. CandSpan is the read view the best-predecessor structure
// and the structural verifiers consume.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>  // nbuf-lint: allow(naked-new)
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "util/contracts.hpp"

namespace nbuf::core {

// Read-only lane view over the first `n` candidates of an SoAList (or any
// equivalent lane layout). Plain pointers, no ownership.
struct CandSpan {
  const double* load = nullptr;
  const double* slack = nullptr;
  const double* current = nullptr;
  const double* noise_slack = nullptr;
  const double* dhat = nullptr;
  const PlanRef* plan = nullptr;
  std::size_t n = 0;
};

class SoAList {
 public:
  static constexpr std::size_t kAlign = 64;  // cache line / widest vector

  SoAList() = default;
  SoAList(SoAList&& o) noexcept { swap(o); }
  SoAList& operator=(SoAList&& o) noexcept {
    if (this != &o) {
      destroy();
      swap(o);
    }
    return *this;
  }
  SoAList(const SoAList&) = delete;
  SoAList& operator=(const SoAList&) = delete;
  ~SoAList() { destroy(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  void clear() noexcept { size_ = 0; }

  [[nodiscard]] double* load() noexcept { return load_; }
  [[nodiscard]] double* slack() noexcept { return slack_; }
  [[nodiscard]] double* current() noexcept { return current_; }
  [[nodiscard]] double* noise_slack() noexcept { return noise_slack_; }
  [[nodiscard]] double* dhat() noexcept { return dhat_; }
  [[nodiscard]] PlanRef* plan() noexcept { return plan_; }
  [[nodiscard]] const double* load() const noexcept { return load_; }
  [[nodiscard]] const double* slack() const noexcept { return slack_; }
  [[nodiscard]] const double* current() const noexcept { return current_; }
  [[nodiscard]] const double* noise_slack() const noexcept {
    return noise_slack_;
  }
  [[nodiscard]] const double* dhat() const noexcept { return dhat_; }
  [[nodiscard]] const PlanRef* plan() const noexcept { return plan_; }

  [[nodiscard]] CandSpan span() const noexcept { return span(size_); }
  // The prefix view of the first n candidates (buffer insertion's read
  // views: appends only ever push beyond a remembered prefix size).
  [[nodiscard]] CandSpan span(std::size_t n) const noexcept {
    NBUF_ASSERT(n <= size_);
    return CandSpan{load_, slack_, current_, noise_slack_, dhat_, plan_, n};
  }

  void reserve(std::size_t cap) {
    if (cap > capacity_) grow(cap);
  }

  // Sets the size directly after filling lanes through the raw pointers
  // (merge/gather sweeps write whole ranges at once); never grows.
  void set_size(std::size_t n) noexcept {
    NBUF_ASSERT(n <= capacity_);
    size_ = n;
  }

  void push_back(double load, double slack, double current,
                 double noise_slack, double dhat, PlanRef plan) {
    if (size_ == capacity_) grow(capacity_ < 4 ? 8 : capacity_ * 2);
    load_[size_] = load;
    slack_[size_] = slack;
    current_[size_] = current;
    noise_slack_[size_] = noise_slack;
    dhat_[size_] = dhat;
    plan_[size_] = plan;
    ++size_;
  }

  void swap(SoAList& o) noexcept {
    std::swap(block_, o.block_);
    std::swap(load_, o.load_);
    std::swap(slack_, o.slack_);
    std::swap(current_, o.current_);
    std::swap(noise_slack_, o.noise_slack_);
    std::swap(dhat_, o.dhat_);
    std::swap(plan_, o.plan_);
    std::swap(size_, o.size_);
    std::swap(capacity_, o.capacity_);
  }

 private:
  static std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + kAlign - 1) / kAlign * kAlign;
  }
  // One block, six lanes; each lane stride is a multiple of kAlign so
  // every lane starts on an aligned boundary.
  static std::size_t block_bytes(std::size_t cap) noexcept {
    return 5 * round_up(cap * sizeof(double)) +
           round_up(cap * sizeof(PlanRef));
  }

  void grow(std::size_t cap) {
    // SoAList IS the owning RAII wrapper: no std container hands out one
    // 64-byte-aligned block carved into typed lanes.
    auto* block = static_cast<unsigned char*>(::operator new(  // nbuf-lint: allow(naked-new)
        block_bytes(cap), std::align_val_t{kAlign}));
    const std::size_t stride = round_up(cap * sizeof(double));
    auto* load = reinterpret_cast<double*>(block);
    auto* slack = reinterpret_cast<double*>(block + stride);
    auto* current = reinterpret_cast<double*>(block + 2 * stride);
    auto* noise_slack = reinterpret_cast<double*>(block + 3 * stride);
    auto* dhat = reinterpret_cast<double*>(block + 4 * stride);
    auto* plan = reinterpret_cast<PlanRef*>(block + 5 * stride);
    if (size_ > 0) {
      std::memcpy(load, load_, size_ * sizeof(double));
      std::memcpy(slack, slack_, size_ * sizeof(double));
      std::memcpy(current, current_, size_ * sizeof(double));
      std::memcpy(noise_slack, noise_slack_, size_ * sizeof(double));
      std::memcpy(dhat, dhat_, size_ * sizeof(double));
      std::memcpy(plan, plan_, size_ * sizeof(PlanRef));
    }
    destroy_block();
    block_ = block;
    load_ = load;
    slack_ = slack;
    current_ = current;
    noise_slack_ = noise_slack;
    dhat_ = dhat;
    plan_ = plan;
    capacity_ = cap;
  }

  void destroy_block() noexcept {
    if (block_ != nullptr)
      ::operator delete(block_, std::align_val_t{kAlign});  // nbuf-lint: allow(naked-new)
  }
  void destroy() noexcept {
    destroy_block();
    block_ = nullptr;
    load_ = slack_ = current_ = noise_slack_ = dhat_ = nullptr;
    plan_ = nullptr;
    size_ = capacity_ = 0;
  }

  unsigned char* block_ = nullptr;
  double* load_ = nullptr;
  double* slack_ = nullptr;
  double* current_ = nullptr;
  double* noise_slack_ = nullptr;
  double* dhat_ = nullptr;
  PlanRef* plan_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// Recycles SoA blocks within one optimization run, the same ownership
// shape as PlanArena: the DP creates and drops thousands of short-lived
// candidate lists, and reusing their aligned lane blocks removes the
// allocator from the hot path. acquire() hands back a cleared list keeping
// whatever capacity its previous life grew; release() returns a list to
// the pool (no-op for lists that never allocated).
class SoAPool {
 public:
  [[nodiscard]] SoAList acquire() {
    if (free_.empty()) return {};
    SoAList l = std::move(free_.back());
    free_.pop_back();
    l.clear();
    ++reuses_;
    return l;
  }

  void release(SoAList&& l) {
    if (l.capacity() == 0) return;
    free_.push_back(std::move(l));
  }

  // Blocks handed out that carried reusable capacity.
  [[nodiscard]] std::size_t reuses() const noexcept { return reuses_; }

 private:
  std::vector<SoAList> free_;
  std::size_t reuses_ = 0;
};

}  // namespace nbuf::core
