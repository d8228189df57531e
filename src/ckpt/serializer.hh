/**
 * @file
 * Versioned checkpoint serialization (DESIGN.md section 11).
 *
 * A checkpoint is a sectioned binary image: a fixed header (magic,
 * format version) followed by named, length-prefixed sections - one per
 * component ("host", "sc", "cluster", "mem", "srf") plus "meta"
 * (config/program fingerprint used to reject mismatched restores),
 * "run" (cycle-loop state and stats snapshots) and "faults" (RNG
 * cursors, armed-site accounting, the fault trace).  Crash snapshots
 * append a "report" section carrying the serialized HangReport and the
 * SimError kind/message.
 *
 * Sections make the format greppable by tools that do not understand
 * component internals: the bisect driver (bisect.hh) compares the raw
 * bytes of the architectural sections between a faulty and a fault-free
 * run without deserializing either.  Within a section, values are
 * written field-by-field in declaration order by each component's
 * saveState()/loadState() pair; every read is bounds-checked against
 * the section length, so a version-skewed or truncated file fails with
 * SimError(Fatal) instead of reading garbage.
 *
 * Versioning rule: any change to a section's field sequence bumps
 * kVersion; there is no in-place migration (checkpoints are short-lived
 * debugging artifacts, not archival state).  The byte encoding is
 * host-endian and host-width - a checkpoint restores on the machine
 * family that wrote it, which is the only supported use.
 */

#ifndef IMAGINE_CKPT_SERIALIZER_HH
#define IMAGINE_CKPT_SERIALIZER_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace imagine
{

struct StreamProgram;
namespace kernelc { struct CompiledKernel; }

namespace ckpt
{

/** File magic ("IMCK") and current format version. */
inline constexpr uint32_t kMagic = 0x4b434d49u;
/** v2: the "run" section carries stat names so restore is name-matched
 *  (a trace-on session may restore a trace-off checkpoint and vice
 *  versa; see ImagineSystem::restoreCheckpoint).  v3: the "run" and
 *  "cluster" sections drop the event-horizon skip's engine state.  v4:
 *  each in-flight memory delivery records its source (channel or
 *  controller cache), and queued DRAM requests drop their never-read
 *  enqueue cycle. */
inline constexpr uint32_t kVersion = 4;

/**
 * Pointer-resolution context threaded through save/load: components
 * serialize kernel pointers as registry indices and scoreboard
 * instruction pointers as program indices, and resolve them back
 * through this context on load.
 */
struct Context
{
    const std::vector<kernelc::CompiledKernel> *kernels = nullptr;
    const StreamProgram *program = nullptr;
};

/** Builds a checkpoint image section by section. */
class Serializer
{
  public:
    explicit Serializer(Context ctx = {}) : ctx_(ctx) {}

    const Context &ctx() const { return ctx_; }

    /** Begin a new section; closes the previous one. */
    void section(const std::string &name);

    void u8(uint8_t v) { raw(&v, sizeof(v)); }
    void u16(uint16_t v) { raw(&v, sizeof(v)); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void i32(int32_t v) { raw(&v, sizeof(v)); }
    void i64(int64_t v) { raw(&v, sizeof(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Bit-exact double (no text round-trip). */
    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }
    void bytes(const void *p, size_t n) { raw(p, n); }
    /** Length-prefixed vector of trivially-copyable elements. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(T));
    }

    /** Assemble the full file image (header + all sections). */
    std::vector<uint8_t> finish() const;
    /** finish() + atomic-ish write (tmp file + rename). */
    void writeFile(const std::string &path) const;

  private:
    void raw(const void *p, size_t n);

    struct Section
    {
        std::string name;
        std::vector<uint8_t> payload;
    };

    Context ctx_;
    std::vector<Section> sections_;
};

/** Reads a checkpoint image; every read is section-bounds-checked. */
class Deserializer
{
  public:
    /** Parse @p image; throws SimError(Fatal) on bad magic/version. */
    explicit Deserializer(std::vector<uint8_t> image, Context ctx = {});
    static Deserializer fromFile(const std::string &path,
                                 Context ctx = {});

    const Context &ctx() const { return ctx_; }
    uint32_t version() const { return version_; }

    bool hasSection(const std::string &name) const;
    /** Position the cursor at the start of section @p name. */
    void section(const std::string &name);

    uint8_t u8() { uint8_t v; raw(&v, sizeof(v)); return v; }
    uint16_t u16() { uint16_t v; raw(&v, sizeof(v)); return v; }
    uint32_t u32() { uint32_t v; raw(&v, sizeof(v)); return v; }
    uint64_t u64() { uint64_t v; raw(&v, sizeof(v)); return v; }
    int32_t i32() { int32_t v; raw(&v, sizeof(v)); return v; }
    int64_t i64() { int64_t v; raw(&v, sizeof(v)); return v; }
    bool b() { return u8() != 0; }
    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    std::string str();
    /**
     * An element count, checked like vec()'s: it is rejected unless
     * @p minBytes per element fits the section remainder, so a corrupt
     * image cannot size an allocation.  @p minBytes is the fewest bytes
     * one serialized element takes.
     */
    size_t count(size_t minBytes) { return checkedCount(u64(), minBytes); }
    void bytes(void *p, size_t n) { raw(p, n); }
    template <typename T>
    std::vector<T>
    vec()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<T> v(checkedCount(u64(), sizeof(T)));
        if (!v.empty())
            raw(v.data(), v.size() * sizeof(T));
        return v;
    }

  private:
    friend std::vector<struct RawSection>
    readSections(const std::string &path);

    void raw(void *p, size_t n);
    /** Reject counts whose payload cannot fit the section remainder. */
    size_t checkedCount(uint64_t count, size_t elemSize) const;

    Context ctx_;
    uint32_t version_ = 0;
    std::vector<uint8_t> image_;
    struct Span
    {
        size_t begin = 0;
        size_t end = 0;
    };
    std::vector<std::pair<std::string, Span>> sections_;
    std::unordered_map<std::string, size_t> index_;
    size_t cursor_ = 0;
    size_t sectionEnd_ = 0;
    std::string current_;
};

/** One raw section of a checkpoint file (bisect / tooling view). */
struct RawSection
{
    std::string name;
    std::vector<uint8_t> payload;
};

/** Parse @p path into raw sections without interpreting payloads. */
std::vector<RawSection> readSections(const std::string &path);

} // namespace ckpt
} // namespace imagine

#endif // IMAGINE_CKPT_SERIALIZER_HH
