// InlineFunction — a move-only std::function replacement with a
// configurable inline buffer.
//
// The discrete-event core schedules millions of small closures per replay;
// std::function's inline buffer (16 bytes on libstdc++) is too small for
// the common `[this, transfer]` and `[this, fn = std::move(cb)]` captures,
// so every such event costs a heap allocation. InlineFunction stores
// callables up to `InlineBytes` in place (48 bytes covers every closure the
// replay engine and network models build) and only falls back to the heap
// for larger ones. Move-only: the event queue never copies handlers.
//
// Like std::function, operator() is const and may call a mutable callable,
// and a default-constructed (or nullptr) InlineFunction is empty.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace osim {

template <typename Signature, std::size_t InlineBytes = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    init(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Whether a callable of type F is stored in place (no heap block).
  template <typename F>
  static constexpr bool kStoresInline =
      sizeof(F) <= InlineBytes && alignof(F) <= alignof(std::max_align_t);

  R operator()(Args... args) const {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs the callable at `dst` from `src`, then destroys the
    /// one at `src`. Null when a byte copy does that: trivially copyable
    /// callables and heap-backed ones (whose buffer holds just the owning
    /// pointer).
    void (*relocate)(void* dst, void* src);
    /// Null for trivially destructible callables.
    void (*destroy)(void*);
  };

  template <typename F>
  void init(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (kStoresInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      using Relocate = void (*)(void*, void*);
      using Destroy = void (*)(void*);
      static constexpr Ops ops = {
          [](void* p, Args&&... args) -> R {
            return (*static_cast<D*>(p))(std::forward<Args>(args)...);
          },
          std::is_trivially_copyable_v<D>
              ? Relocate{nullptr}
              : [](void* dst, void* src) {
                  ::new (dst) D(std::move(*static_cast<D*>(src)));
                  static_cast<D*>(src)->~D();
                },
          std::is_trivially_destructible_v<D>
              ? Destroy{nullptr}
              : [](void* p) { static_cast<D*>(p)->~D(); },
      };
      ops_ = &ops;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      static constexpr Ops ops = {
          [](void* p, Args&&... args) -> R {
            return (**static_cast<D**>(p))(std::forward<Args>(args)...);
          },
          nullptr,
          [](void* p) { delete *static_cast<D**>(p); },
      };
      ops_ = &ops;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, InlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) mutable unsigned char buf_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace osim
