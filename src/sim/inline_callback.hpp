// Small-buffer move-only callable for the event engine's hot path.
//
// `std::function` heap-allocates for captures beyond ~16 bytes, which makes
// every `Engine::schedule` an allocation. `InlineCallback` stores callables
// up to `kInlineCallbackBytes` directly inside the event slot (enough for a
// `this` pointer plus several captured scalars, or a whole `std::function`
// being forwarded), falling back to the heap only for oversized or
// throwing-move callables.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace amoeba::sim {

/// Inline storage size. Covers `this` + ~5 word-sized captures, which holds
/// every callback the simulators schedule except the VM-boot closure: it
/// carries two std::functions (ready and failed) and takes the heap path.
/// (The container-boot closure leaves its two in the pool's table row.)
inline constexpr std::size_t kInlineCallbackBytes = 48;

class InlineCallback {
 public:
  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      ::new (static_cast<void*>(storage_))
          D*(new D(std::forward<F>(f)));  // lint: allow — SBO heap fallback
      ops_ = &heap_ops<D>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { take(std::move(other)); }

  /// Destroy the held callable (if any) and construct a new one in place.
  /// This is the zero-relocation path `Engine::schedule` uses to build the
  /// callback directly inside the event slot.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    static_assert(!std::is_same_v<D, InlineCallback>);
    static_assert(std::is_invocable_r_v<void, D&>);
    reset();
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      ::new (static_cast<void*>(storage_))
          D*(new D(std::forward<F>(f)));  // lint: allow — SBO heap fallback
      ops_ = &heap_ops<D>;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(std::move(other));
    }
    return *this;
  }

  InlineCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void operator()() {
    AMOEBA_EXPECTS_MSG(ops_ != nullptr, "invoking an empty InlineCallback");
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-construct the callable from `from` into `to`'s storage, then
    // destroy the source (relocation: event slots live in a growable slab).
    // nullptr means "memcpy the whole buffer" — the common case of a
    // trivially copyable lambda, kept indirect-call-free on the hot path.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;  // nullptr = trivially destructible
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCallbackBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr bool trivially_relocatable() {
    return std::is_trivially_copyable_v<D> &&
           std::is_trivially_destructible_v<D>;
  }

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* self) { (*std::launder(reinterpret_cast<D*>(self)))(); },
      trivially_relocatable<D>()
          ? nullptr
          : +[](void* from, void* to) noexcept {
              D* src = std::launder(reinterpret_cast<D*>(from));
              ::new (to) D(std::move(*src));
              src->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* self) noexcept {
              std::launder(reinterpret_cast<D*>(self))->~D();
            },
  };

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* self) { (**std::launder(reinterpret_cast<D**>(self)))(); },
      /*relocate=*/nullptr,  // moving the owning pointer is a memcpy
      [](void* self) noexcept { delete *std::launder(reinterpret_cast<D**>(self)); },
  };

  void take(InlineCallback&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr) {
        std::memcpy(storage_, other.storage_, kInlineCallbackBytes);
      } else {
        ops_->relocate(other.storage_, storage_);
      }
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCallbackBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace amoeba::sim
