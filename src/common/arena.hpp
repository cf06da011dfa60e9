// Arena — a chunked monotonic allocator for per-run bookkeeping objects.
//
// The replay engine creates one SendSide / PostedRecv / CommEvent per
// message and frees them all when the run ends. Allocating each through
// make_unique costs a malloc/free pair per message and scatters the
// objects across the heap; the arena hands them out bump-pointer style
// from large chunks, so allocation is a pointer increment and objects
// created together sit together. Everything is released at once when the
// arena is destroyed — there is no per-object free, which is why only
// trivially-destructible types are accepted.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace osim {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Constructs a T in the arena. The pointer is stable for the arena's
  /// lifetime; no destructor ever runs (hence the trivially-destructible
  /// requirement).
  template <typename T, typename... ArgTs>
  T* make(ArgTs&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are freed wholesale; destructors never run");
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types would need aligned chunk storage");
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<ArgTs>(args)...);
  }

  std::size_t bytes_allocated() const { return allocated_; }

 private:
  void* allocate(std::size_t size, std::size_t align) {
    std::size_t misalign = reinterpret_cast<std::uintptr_t>(cur_) & (align - 1);
    std::size_t pad = misalign == 0 ? 0 : align - misalign;
    if (left_ < size + pad) {
      const std::size_t chunk = size > chunk_bytes_ ? size : chunk_bytes_;
      // operator new returns max_align_t-aligned storage, enough for any
      // type the replay engine arenas. Not zeroed: make() constructs every
      // object it hands out.
      chunks_.push_back(std::make_unique_for_overwrite<unsigned char[]>(chunk));
      cur_ = chunks_.back().get();
      left_ = chunk;
      pad = 0;
    }
    cur_ += pad;
    left_ -= pad;
    void* p = cur_;
    cur_ += size;
    left_ -= size;
    allocated_ += size + pad;
    return p;
  }

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  unsigned char* cur_ = nullptr;
  std::size_t left_ = 0;
  std::size_t allocated_ = 0;
};

}  // namespace osim
