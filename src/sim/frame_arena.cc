#include "sim/frame_arena.h"

#include <algorithm>
#include <new>

namespace meecc::sim {

FrameArena::~FrameArena() {
  for (void* chunk : chunks_) ::operator delete(chunk);
}

void* FrameArena::allocate_ambient(std::size_t size) {
  // Reserve at least one pointer of payload: parked blocks thread their
  // freelist link through it.
  const std::size_t total =
      (std::max(size, sizeof(void*)) + sizeof(Header) + kAlign - 1) &
      ~(kAlign - 1);
  if (ambient_ != nullptr && total <= kMaxClassBytes)
    return ambient_->allocate(total);
  Header* header = static_cast<Header*>(::operator new(total));
  header->owner = nullptr;
  header->bytes = total;
  return header + 1;
}

void FrameArena::deallocate(void* ptr) noexcept {
  if (ptr == nullptr) return;
  Header* header = static_cast<Header*>(ptr) - 1;
  if (header->owner == nullptr) {
    ::operator delete(header);
    return;
  }
  header->owner->recycle(header);
}

void* FrameArena::allocate(std::size_t total) {
  const std::size_t cls = total / kAlign;
  if (void* parked = free_lists_[cls]) {
    Header* header = static_cast<Header*>(parked);
    free_lists_[cls] = *reinterpret_cast<void**>(header + 1);
    header->owner = this;
    header->bytes = total;
    return header + 1;
  }
  if (chunks_.empty()) chunks_.push_back(::operator new(kChunkBytes));
  if (chunk_used_ + total > kChunkBytes) {
    if (++active_chunk_ == chunks_.size())
      chunks_.push_back(::operator new(kChunkBytes));
    chunk_used_ = 0;
  }
  Header* header = reinterpret_cast<Header*>(
      static_cast<char*>(chunks_[active_chunk_]) + chunk_used_);
  chunk_used_ += total;
  header->owner = this;
  header->bytes = total;
  return header + 1;
}

void FrameArena::recycle(Header* header) noexcept {
  const std::size_t cls = header->bytes / kAlign;
  *reinterpret_cast<void**>(header + 1) = free_lists_[cls];
  free_lists_[cls] = header;
}

void FrameArena::reset() {
  std::fill(free_lists_.begin(), free_lists_.end(), nullptr);
  active_chunk_ = 0;
  chunk_used_ = 0;
}

std::size_t FrameArena::free_blocks() const {
  std::size_t n = 0;
  for (void* head : free_lists_)
    for (void* p = head; p != nullptr;
         p = *reinterpret_cast<void**>(static_cast<Header*>(p) + 1))
      ++n;
  return n;
}

}  // namespace meecc::sim
