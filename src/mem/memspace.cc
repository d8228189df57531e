#include "mem/memspace.hh"

#include "ckpt/serializer.hh"
#include "sim/error.hh"
#include "sim/log.hh"

namespace imagine
{

void
MemorySpace::outOfBounds(const char *what, Addr wordAddr)
{
    // An out-of-range address used to silently allocate a fresh page;
    // now it is a diagnosable error naming the offending address.
    throw SimError(
        SimErrorKind::MemoryBounds,
        strfmt("%s of word address 0x%llx outside the 256 MB board "
               "address space (limit 0x%llx)",
               what, static_cast<unsigned long long>(wordAddr),
               static_cast<unsigned long long>(sizeWords)));
}

void
MemorySpace::allocate(Page &p)
{
    p.assign(pageWords, 0);
}

void
MemorySpace::writeWords(Addr wordAddr, const std::vector<Word> &words)
{
    for (size_t i = 0; i < words.size(); ++i)
        writeWord(wordAddr + i, words[i]);
}

std::vector<Word>
MemorySpace::readWords(Addr wordAddr, size_t count) const
{
    std::vector<Word> out(count);
    for (size_t i = 0; i < count; ++i)
        out[i] = readWord(wordAddr + i);
    return out;
}

void
MemorySpace::saveState(ckpt::Serializer &s) const
{
    uint64_t allocated = 0;
    for (const Page &p : pages_)
        allocated += p.empty() ? 0 : 1;
    s.u64(allocated);
    for (size_t idx = 0; idx < numPages; ++idx) {
        if (pages_[idx].empty())
            continue;
        s.u64(idx);
        s.vec(pages_[idx]);
    }
}

void
MemorySpace::loadState(ckpt::Deserializer &d)
{
    pages_.assign(numPages, Page{});
    for (uint64_t i = 0, n = d.u64(); i < n; ++i) {
        Addr idx = d.u64();
        Page p = d.vec<Word>();
        if (idx >= numPages || p.size() != pageWords)
            throw SimError(SimErrorKind::Fatal,
                           strfmt("checkpoint memory page %llu: bad index "
                                  "or size (%zu words)",
                                  static_cast<unsigned long long>(idx),
                                  p.size()));
        pages_[idx] = std::move(p);
    }
}

} // namespace imagine
