/**
 * @file
 * Age order over a fixed set of frame slots. In-flight blocks live in
 * arrays indexed by their instruction-window frame, but frames recycle
 * out of order — a flush frees the youngest blocks, a commit the
 * oldest — so a frame index says nothing about age. A FrameRing lists
 * the occupied frames oldest first: a block enters at the young end
 * and leaves from either end, the only two ways a block can leave the
 * window.
 */

#ifndef EDGE_COMMON_FRAME_RING_HH
#define EDGE_COMMON_FRAME_RING_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace edge {

class FrameRing
{
  public:
    explicit FrameRing(unsigned capacity) : _slots(capacity, 0) {}

    unsigned size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** The i-th oldest occupied frame (0 = oldest). */
    unsigned
    operator[](unsigned i) const
    {
        return _slots[wrap(_head + i)];
    }
    unsigned front() const { return (*this)[0]; }
    unsigned back() const { return (*this)[_size - 1]; }

    /** A frame became the youngest in-flight block. */
    void
    push_back(unsigned frame)
    {
        panic_if(_size == _slots.size(), "frame ring overflow");
        _slots[wrap(_head + _size)] = static_cast<std::uint16_t>(frame);
        ++_size;
    }

    /** The oldest block committed. */
    void
    pop_front()
    {
        panic_if(_size == 0, "frame ring underflow");
        _head = wrap(_head + 1);
        --_size;
    }

    /** The youngest block was flushed. */
    void
    pop_back()
    {
        panic_if(_size == 0, "frame ring underflow");
        --_size;
    }

  private:
    /** Reduce an index below 2 * capacity into the ring. */
    unsigned
    wrap(unsigned i) const
    {
        auto n = static_cast<unsigned>(_slots.size());
        return i >= n ? i - n : i;
    }

    std::vector<std::uint16_t> _slots;
    unsigned _head = 0;
    unsigned _size = 0;
};

} // namespace edge

#endif // EDGE_COMMON_FRAME_RING_HH
