/**
 * @file
 * Two-way tagged binary codec for simulation checkpoints.
 *
 * A StateIo either saves or restores. Each component spells its
 * checkpoint format once, in a checkpoint(StateIo&) member whose calls
 * take a reference: saving appends the value, restoring reads into it
 * (`io.u64(next_seq_)`). Blobs are written and read by the same build
 * on the same machine (fork-from-warm-snapshot, not an interchange
 * format), so the encoding is deliberately simple: little-endian
 * fixed-width scalars, length-prefixed byte runs and four-char section
 * tags. Doubles round-trip bit-exactly via memcpy — required for the
 * restore-determinism guarantee.
 *
 * Restoring never aborts on blob contents. The first problem — a
 * truncated blob, a wrong tag, a count that cannot fit in the bytes
 * left, a field that disagrees with the live object, a value the live
 * object cannot use — records an error naming the section tag and the
 * byte offset. The error is sticky: after it every read yields zero and
 * consumes nothing, so component code needs no error branches.
 */
#ifndef PULSE_COMMON_SERIAL_H
#define PULSE_COMMON_SERIAL_H

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace pulse {

class StateIo
{
  public:
    /** Saving: every call appends its value; take() yields the blob. */
    StateIo() = default;

    /** Restoring from @p bytes, which must outlive this object. */
    explicit StateIo(const std::vector<std::uint8_t>& bytes)
        : reading_(true), in_(bytes.data()), size_(bytes.size())
    {
    }

    bool reading() const { return reading_; }
    bool ok() const { return error_.empty(); }
    const std::string& error() const { return error_; }

    void u8(std::uint8_t& v) { raw(&v, sizeof(v)); }
    void u32(std::uint32_t& v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t& v) { raw(&v, sizeof(v)); }
    void i64(std::int64_t& v) { raw(&v, sizeof(v)); }
    void f64(double& v) { raw(&v, sizeof(v)); }

    /** One byte, 0 or 1. */
    void
    boolean(bool& v)
    {
        std::uint8_t byte = v ? 1 : 0;
        u8(byte);
        if (byte > 1) {
            fail("boolean byte %u", byte);
            byte = 0;
        }
        v = byte == 1;
    }

    /** An enum stored as one byte; restoring rejects values above
     *  @p max. */
    template <typename E>
    void
    enum8(E& v, E max)
    {
        auto byte = static_cast<std::uint8_t>(v);
        u8(byte);
        if (byte > static_cast<std::uint8_t>(max)) {
            fail("enum value %u above %u", byte,
                 static_cast<unsigned>(max));
            byte = 0;
        }
        v = static_cast<E>(byte);
    }

    /** Length-prefixed run of exactly @p len bytes at @p data. */
    void
    bytes(void* data, std::size_t len)
    {
        std::uint64_t stored = len;
        u64(stored);
        if (stored != len) {
            fail("byte run of %llu bytes, expected %zu",
                 static_cast<unsigned long long>(stored), len);
        }
        raw(data, len);
    }

    /** Section tag: written when saving, checked when restoring. */
    void
    tag(const char (&name)[5])
    {
        std::memcpy(section_, name, 4);
        char got[4];
        std::memcpy(got, name, 4);
        raw(got, 4);
        if (ok() && std::memcmp(got, name, 4) != 0) {
            fail("found tag %02x%02x%02x%02x",
                 static_cast<std::uint8_t>(got[0]),
                 static_cast<std::uint8_t>(got[1]),
                 static_cast<std::uint8_t>(got[2]),
                 static_cast<std::uint8_t>(got[3]));
        }
    }

    /**
     * A field that must equal the live object's value (a config
     * fingerprint scalar, a core or port count): saving writes
     * @p live, restoring compares the snapshot's value with it.
     */
    template <typename T>
    void
    expect(T live, const char* what)
    {
        static_assert(std::is_integral_v<T>, "expect() takes an integer");
        T stored = live;
        if constexpr (std::is_same_v<T, bool>) {
            boolean(stored);
        } else {
            raw(&stored, sizeof(stored));
        }
        if (stored != live) {
            fail("%s mismatch: snapshot has %llu, live has %llu", what,
                 static_cast<unsigned long long>(stored),
                 static_cast<unsigned long long>(live));
        }
    }

    /**
     * Element count of a following run whose items take at least
     * @p min_item_bytes each. Restoring rejects a count that could not
     * fit in the bytes left — before the caller sizes anything by it.
     */
    void
    count(std::uint64_t& n, std::size_t min_item_bytes)
    {
        u64(n);
        if (reading_ && n > (size_ - offset_) / min_item_bytes) {
            fail("count %llu cannot fit in the %zu bytes left",
                 static_cast<unsigned long long>(n), size_ - offset_);
            n = 0;
        }
    }

    /**
     * Record an error (printf format). Only the first one is kept.
     * Restoring calls this for values the live object cannot use; it
     * is a no-op when saving, whose values come from live state.
     */
    void
    fail(const char* format, ...) __attribute__((format(printf, 2, 3)))
    {
        if (!reading_ || !ok()) {
            return;
        }
        char message[256];
        va_list args;
        va_start(args, format);
        std::vsnprintf(message, sizeof(message), format, args);
        va_end(args);
        char prefix[96];
        std::snprintf(prefix, sizeof(prefix),
                      "checkpoint section '%.4s' at byte %zu: ", section_,
                      field_start_);
        error_ = std::string(prefix) + message;
    }

    /** Restoring: an error if bytes remain unread. Returns ok(). */
    bool
    finish()
    {
        if (offset_ != size_) {
            field_start_ = offset_;
            fail("%zu trailing bytes", size_ - offset_);
        }
        return ok();
    }

    /** Saving: the finished blob. */
    std::vector<std::uint8_t> take() { return std::move(out_); }

  private:
    void
    raw(void* data, std::size_t len)
    {
        if (!reading_) {
            const auto* p = static_cast<const std::uint8_t*>(data);
            out_.insert(out_.end(), p, p + len);
            return;
        }
        field_start_ = offset_;
        if (ok() && len > size_ - offset_) {
            fail("truncated: %zu bytes wanted, %zu left", len,
                 size_ - offset_);
        }
        if (!ok()) {
            std::memset(data, 0, len);
            return;
        }
        std::memcpy(data, in_ + offset_, len);
        offset_ += len;
    }

    bool reading_ = false;
    std::vector<std::uint8_t> out_;
    const std::uint8_t* in_ = nullptr;
    std::size_t size_ = 0;
    std::size_t offset_ = 0;
    std::size_t field_start_ = 0;
    char section_[4] = {'-', '-', '-', '-'};
    std::string error_;
};

}  // namespace pulse

#endif  // PULSE_COMMON_SERIAL_H
