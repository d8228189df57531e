/**
 * @file
 * Functional backing store for the off-chip Imagine memory space
 * (256 MB of SDRAM on the development board).  A fixed table of 1024
 * page slots covers the whole space; pages are allocated lazily so
 * sparse address use stays cheap.
 */

#ifndef IMAGINE_MEM_MEMSPACE_HH
#define IMAGINE_MEM_MEMSPACE_HH

#include <vector>

#include "sim/types.hh"

namespace imagine
{

namespace ckpt
{
class Serializer;
class Deserializer;
} // namespace ckpt

/** Lazily-paged word-addressable memory image. */
class MemorySpace
{
  public:
    /** Board address space: 256 MB of SDRAM = 2^26 words. */
    static constexpr Addr sizeWords = Addr(1) << 26;

    /** True when @p wordAddr lies inside the board address space. */
    static bool inBounds(Addr wordAddr) { return wordAddr < sizeWords; }

    /** One word; inline, since the memory system moves every word of
     *  every transfer through these. */
    Word
    readWord(Addr wordAddr) const
    {
        if (!inBounds(wordAddr))
            outOfBounds("read", wordAddr);
        return page(wordAddr)[wordAddr % pageWords];
    }
    void
    writeWord(Addr wordAddr, Word w)
    {
        if (!inBounds(wordAddr))
            outOfBounds("write", wordAddr);
        page(wordAddr)[wordAddr % pageWords] = w;
    }

    /** Bulk helpers for loading workload data. */
    void writeWords(Addr wordAddr, const std::vector<Word> &words);
    std::vector<Word> readWords(Addr wordAddr, size_t count) const;

    /**
     * Checkpoint every allocated page in page-index order.  Restore
     * replaces the full page set.
     */
    void saveState(ckpt::Serializer &s) const;
    void loadState(ckpt::Deserializer &d);

  private:
    static constexpr Addr pageWords = 1 << 16;
    static constexpr size_t numPages = sizeWords / pageWords;

    /** Raise a MemoryBounds SimError for an out-of-range access. */
    [[noreturn]] static void outOfBounds(const char *what, Addr wordAddr);
    using Page = std::vector<Word>;
    /** Indexed by page number; empty = not yet touched.  Any access,
     *  read or write, allocates (and so checkpoints) the page. */
    mutable std::vector<Page> pages_ = std::vector<Page>(numPages);

    Page &
    page(Addr wordAddr) const
    {
        Page &p = pages_[wordAddr / pageWords];
        if (p.empty())
            allocate(p);
        return p;
    }
    /** Back a page on first touch. */
    static void allocate(Page &p);
};

} // namespace imagine

#endif // IMAGINE_MEM_MEMSPACE_HH
