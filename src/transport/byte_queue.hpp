// FIFO byte buffer with random-access reads, used for TCP/MPTCP send and
// receive buffers.
//
// A contiguous ring: one power-of-two buffer that doubles when an append
// does not fit and never shrinks, so a long-lived queue stops allocating
// once it has seen its largest backlog. Every read and write is at most two
// memcpy calls, one on each side of the ring's seam.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/bytes.hpp"

namespace cb::transport {

class ByteQueue {
 public:
  /// A byte range as up to two contiguous pieces: `second` is non-empty
  /// only when the range straddles the ring's seam.
  struct Pieces {
    BytesView first;
    BytesView second;
  };

  ByteQueue() = default;
  ByteQueue(ByteQueue&& o) noexcept { swap(o); }
  ByteQueue& operator=(ByteQueue&& o) noexcept {
    ByteQueue(std::move(o)).swap(*this);
    return *this;
  }
  ByteQueue(const ByteQueue&) = delete;
  ByteQueue& operator=(const ByteQueue&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes the ring can hold before it next grows.
  std::size_t capacity() const { return cap_; }

  std::uint8_t operator[](std::size_t i) const { return buf_[(head_ + i) & (cap_ - 1)]; }

  void append(BytesView data) {
    reserve(size_ + data.size());
    const std::size_t tail = (head_ + size_) & (cap_ - 1);
    const std::size_t first = std::min(data.size(), cap_ - tail);
    if (first > 0) std::memcpy(buf_.get() + tail, data.data(), first);
    if (data.size() > first) std::memcpy(buf_.get(), data.data() + first, data.size() - first);
    size_ += data.size();
  }

  /// The bytes [offset, offset + len) clamped to the queue, as views into
  /// the ring. Valid until the next append().
  Pieces pieces(std::size_t offset, std::size_t len) const {
    if (offset >= size_) return {};
    len = std::min(len, size_ - offset);
    const std::size_t start = (head_ + offset) & (cap_ - 1);
    const std::size_t first = std::min(len, cap_ - start);
    return {BytesView(buf_.get() + start, first), BytesView(buf_.get(), len - first)};
  }

  /// Copy `len` bytes starting `offset` bytes from the front into `dst`
  /// (clamped to the available range); returns how many were copied.
  std::size_t copy_out(std::size_t offset, std::size_t len, std::uint8_t* dst) const {
    const Pieces p = pieces(offset, len);
    if (!p.first.empty()) std::memcpy(dst, p.first.data(), p.first.size());
    if (!p.second.empty()) std::memcpy(dst + p.first.size(), p.second.data(), p.second.size());
    return p.first.size() + p.second.size();
  }

  /// Discard `n` bytes from the front (clamped).
  void pop(std::size_t n) {
    n = std::min(n, size_);
    size_ -= n;
    // An emptied ring restarts at offset 0, so the next range is unsplit.
    head_ = size_ == 0 ? 0 : (head_ + n) & (cap_ - 1);
  }

  void clear() { size_ = head_ = 0; }

 private:
  void reserve(std::size_t need) {
    if (need <= cap_) return;
    std::size_t cap = cap_ == 0 ? kMinCapacity : cap_;
    while (cap < need) cap *= 2;
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    copy_out(0, size_, grown.get());  // unwrap: the live bytes start at 0
    buf_ = std::move(grown);
    cap_ = cap;
    head_ = 0;
  }

  void swap(ByteQueue& o) noexcept {
    std::swap(buf_, o.buf_);
    std::swap(cap_, o.cap_);
    std::swap(head_, o.head_);
    std::swap(size_, o.size_);
  }

  static constexpr std::size_t kMinCapacity = 64;

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;   // 0 or a power of two
  std::size_t head_ = 0;  // ring offset of the front byte
  std::size_t size_ = 0;
};

}  // namespace cb::transport
