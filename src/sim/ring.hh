/**
 * @file
 * Small containers for the uncore's per-cycle paths: a growable FIFO
 * ring with indexed access from the front, and division by a divisor
 * fixed at construction without a hardware divide.
 */

#ifndef IMAGINE_SIM_RING_HH
#define IMAGINE_SIM_RING_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace imagine
{

/**
 * FIFO ring buffer over a power-of-two array that doubles when full,
 * for short queues on per-word paths: unlike std::deque it is one
 * block, and front(), push_back() and [i] are a mask, not a segment
 * walk.  It never shrinks, so a queue that can grow long belongs in a
 * std::deque instead.
 */
template <typename T>
class Ring
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    Ring() = default;
    Ring(Ring &&o) noexcept { swap(o); }
    Ring &
    operator=(Ring &&o) noexcept
    {
        swap(o);
        return *this;
    }
    void
    swap(Ring &o) noexcept
    {
        std::swap(buf_, o.buf_);
        std::swap(cap_, o.cap_);
        std::swap(head_, o.head_);
        std::swap(tail_, o.tail_);
        std::swap(mask_, o.mask_);
    }

    bool empty() const { return head_ == tail_; }
    size_t size() const { return tail_ - head_; }
    T &operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](size_t i) const { return buf_[(head_ + i) & mask_]; }
    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }

    void
    push_back(const T &v)
    {
        if (size() == cap_)
            grow();
        buf_[tail_++ & mask_] = v;
    }
    void pop_front() { ++head_; }
    void clear() { head_ = tail_ = 0; }

  private:
    /** Out of line, so push_back() stays small enough to inline. */
    [[gnu::noinline]] void
    grow()
    {
        const size_t cap = cap_ ? 2 * cap_ : 8;
        std::unique_ptr<T[]> next(new T[cap]);
        for (size_t i = 0; i < size(); ++i)
            next[i] = (*this)[i];
        tail_ = size();
        head_ = 0;
        buf_ = std::move(next);
        cap_ = cap;
        mask_ = cap - 1;
    }

    std::unique_ptr<T[]> buf_;
    size_t cap_ = 0;
    size_t head_ = 0;
    size_t tail_ = 0;
    size_t mask_ = 0;
};

/**
 * Quotient and remainder of any 32-bit value by a fixed 32-bit divisor
 * d >= 1, by one 64x64->128 multiply (Lemire, Kaser and Kurz, "Faster
 * Remainder by Direct Computation", 2019): with M = floor((2^64 - 1) /
 * d) + 1, n / d is the high word of M * n and n % d is the high word
 * of (M * n mod 2^64) * d.  M wraps to 0 for d = 1, which is handled
 * apart.
 */
class FixedDivisor
{
  public:
    FixedDivisor() = default;
    explicit FixedDivisor(uint32_t d)
        : d_(d), m_(d > 1 ? UINT64_MAX / d + 1 : 0)
    {
    }

    uint32_t divisor() const { return d_; }
    uint32_t
    div(uint32_t n) const
    {
        if (d_ == 1)
            return n;
        return static_cast<uint32_t>(
            (static_cast<unsigned __int128>(m_) * n) >> 64);
    }
    uint32_t
    mod(uint32_t n) const
    {
        if (d_ == 1)
            return 0;
        uint64_t low = m_ * n;
        return static_cast<uint32_t>(
            (static_cast<unsigned __int128>(low) * d_) >> 64);
    }

  private:
    uint32_t d_ = 1;
    uint64_t m_ = 0;
};

} // namespace imagine

#endif // IMAGINE_SIM_RING_HH
