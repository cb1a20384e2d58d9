#pragma once
// Storage for array members that are either owned (built in-process, held
// in a std::vector) or borrowed (zero-copy views over externally owned
// memory, e.g. an mmap'd artifact snapshot — see src/service/snapshot.hpp).
//
// The accessor surface is the read-only slice of std::vector, so Graph
// and routing::CellIndex keep their hot-path code unchanged while gaining
// view construction.  Copying an owning span
// deep-copies; copying a view copies the pointer — the borrowed memory
// must outlive every view over it (the snapshot loader guarantees this by
// keeping the mapping alive through the graph shared_ptr's deleter).

#include <cstddef>
#include <utility>
#include <vector>

namespace sfly {

template <typename T>
class OwnedSpan {
 public:
  OwnedSpan() = default;

  /// Take ownership of a built vector.
  OwnedSpan(std::vector<T> v) : own_(std::move(v)) { repoint(); }
  OwnedSpan& operator=(std::vector<T> v) {
    own_ = std::move(v);
    view_ = false;
    repoint();
    return *this;
  }

  /// Borrow externally owned memory (no copy; caller manages lifetime).
  static OwnedSpan view(const T* data, std::size_t n) {
    OwnedSpan s;
    s.view_ = true;
    s.data_ = data;
    s.size_ = n;
    return s;
  }

  OwnedSpan(const OwnedSpan& o) : own_(o.own_), view_(o.view_) {
    if (view_) {
      data_ = o.data_;
      size_ = o.size_;
    } else {
      repoint();
    }
  }
  OwnedSpan& operator=(const OwnedSpan& o) {
    if (this == &o) return *this;
    own_ = o.own_;
    view_ = o.view_;
    if (view_) {
      data_ = o.data_;
      size_ = o.size_;
    } else {
      repoint();
    }
    return *this;
  }
  OwnedSpan(OwnedSpan&& o) noexcept
      : own_(std::move(o.own_)), view_(o.view_) {
    if (view_) {
      data_ = o.data_;
      size_ = o.size_;
    } else {
      repoint();
    }
    o.own_.clear();
    o.view_ = false;
    o.repoint();
  }
  OwnedSpan& operator=(OwnedSpan&& o) noexcept {
    if (this == &o) return *this;
    own_ = std::move(o.own_);
    view_ = o.view_;
    if (view_) {
      data_ = o.data_;
      size_ = o.size_;
    } else {
      repoint();
    }
    o.own_.clear();
    o.view_ = false;
    o.repoint();
    return *this;
  }

  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  /// True when this span borrows memory it does not own.
  [[nodiscard]] bool is_view() const { return view_; }

 private:
  void repoint() {
    data_ = own_.data();
    size_ = own_.size();
  }

  std::vector<T> own_;
  bool view_ = false;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace sfly
