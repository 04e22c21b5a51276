/**
 * @file
 * Sparse paged functional memory.
 *
 * Holds the architectural memory contents of one simulated address
 * space. Pages are allocated on first touch and zero-filled, so reads of
 * untouched memory (e.g. down a mispredicted path) return 0 instead of
 * faulting.
 *
 * A memory may sit on a read-only *base image*: page-aligned word
 * arrays owned by someone else (the program's initial data segments,
 * see func::loadProgramData) that every core and functional model
 * running the program shares copy-on-write. A read looks for an owned
 * page first, then the base, then returns 0, and never allocates. The
 * first write to a base page copies it into an owned page (a partial
 * last page zero-filled past the segment). The base arrays must
 * outlive every access to the memory.
 *
 * A small direct-mapped page-pointer cache sits in front of the page
 * hash map: the functional interpreter and the VCA renamer's
 * spill/fill traffic hit the same handful of pages over and over, and
 * the cache turns the per-word unordered_map lookup into an
 * index-compare-load. The cache holds raw word pointers, which is safe
 * because pages are node-stored in the map (pointers survive rehash)
 * and their backing vectors are sized once and never resized. Each
 * slot records whether its page is owned, so a write never goes
 * through a pointer into the read-only base. clear() invalidates every
 * cached pointer by bumping a generation counter.
 */

#ifndef VCA_MEM_SPARSE_MEMORY_HH
#define VCA_MEM_SPARSE_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace vca::mem {

class SparseMemory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr Addr pageBytes = Addr(1) << pageShift;
    static constexpr unsigned wordsPerPage = pageBytes / 8;

    /** Read an aligned 64-bit word (unaligned addresses are rounded). */
    std::uint64_t
    read(Addr addr) const
    {
        if (const CacheSlot *slot = cachedSlot(addr))
            return slot->words[wordIndex(addr)];
        return readMiss(addr);
    }

    /** Write an aligned 64-bit word. */
    void
    write(Addr addr, std::uint64_t value)
    {
        const CacheSlot *slot = cachedSlot(addr);
        if (slot && slot->owned) {
            const_cast<std::uint64_t *>(slot->words)[wordIndex(addr)] =
                value;
            return;
        }
        Page &page = ownPage(addr);
        cacheWords(addr, page.data(), true);
        page[wordIndex(addr)] = value;
    }

    /** Read as IEEE double (bit pattern reinterpretation). */
    double
    readDouble(Addr addr) const
    {
        std::uint64_t bits = read(addr);
        double d;
        static_assert(sizeof(d) == sizeof(bits));
        __builtin_memcpy(&d, &bits, sizeof(d));
        return d;
    }

    void
    writeDouble(Addr addr, double value)
    {
        std::uint64_t bits;
        __builtin_memcpy(&bits, &value, sizeof(bits));
        write(addr, bits);
    }

    /**
     * Use numWords words at @p words as the read-only initial contents
     * of the memory starting at @p base. @p base must be page-aligned
     * and the range must not share a page with an earlier base range;
     * owned pages in the range keep overriding it. The array must
     * outlive every access to this memory.
     */
    void
    mapBase(Addr base, const std::uint64_t *words, size_t numWords)
    {
        if (base & (pageBytes - 1))
            panic("SparseMemory::mapBase: base %#llx is not page-aligned",
                  (unsigned long long)base);
        const BaseRange range{pageNumber(base),
                              pageNumber(base) +
                                  (numWords + wordsPerPage - 1) /
                                      wordsPerPage,
                              words, numWords};
        for (const BaseRange &r : base_) {
            if (range.firstPage < r.endPage && r.firstPage < range.endPage)
                panic("SparseMemory::mapBase: %#llx overlaps a base page",
                      (unsigned long long)base);
        }
        base_.push_back(range);
    }

    /** No owned pages and no base image. */
    bool empty() const { return pages_.empty() && base_.empty(); }

    /** Number of owned pages (for tests / footprint). */
    size_t allocatedPages() const { return pages_.size(); }

    /**
     * Visit every page with content (unspecified order) as
     * fn(pageBaseAddr, words) with words pointing at wordsPerPage
     * uint64s: every owned page, plus every base page that is not
     * owned and holds a nonzero word. Used by the switch-in protocol
     * to copy a whole functional image — including zero words, so
     * stale nonzero destination contents cannot survive the transfer.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const auto &[pageNum, page] : pages_)
            fn(pageNum << pageShift, page.data());
        for (const BaseRange &r : base_) {
            for (Addr pn = r.firstPage; pn < r.endPage; ++pn) {
                if (pages_.count(pn))
                    continue;
                std::uint64_t buf[wordsPerPage];
                const std::uint64_t *words = basePage(r, pn, buf);
                for (unsigned i = 0; i < wordsPerPage; ++i) {
                    if (words[i] != 0) {
                        fn(pn << pageShift, words);
                        break;
                    }
                }
            }
        }
    }

    /** Drop all contents, base image included (invalidates every
     *  cached page pointer). */
    void
    clear()
    {
        pages_.clear();
        base_.clear();
        ++generation_;
    }

  private:
    using Page = std::vector<std::uint64_t>;

    /** A read-only base range: pages [firstPage, endPage). */
    struct BaseRange
    {
        Addr firstPage;
        Addr endPage;
        const std::uint64_t *words;
        size_t numWords;
    };

    /** Direct-mapped page-pointer cache slots (power of two). */
    static constexpr unsigned cacheSlots = 16;

    struct CacheSlot
    {
        Addr pageNum = 0;
        std::uint64_t generation = 0; ///< valid iff == generation_
        const std::uint64_t *words = nullptr;
        bool owned = false; ///< words is an owned (writable) page
    };

    static Addr pageNumber(Addr addr) { return addr >> pageShift; }

    static unsigned
    wordIndex(Addr addr)
    {
        return static_cast<unsigned>((addr & (pageBytes - 1)) >> 3);
    }

    CacheSlot &
    slotFor(Addr addr) const
    {
        return cache_[pageNumber(addr) & (cacheSlots - 1)];
    }

    const CacheSlot *
    cachedSlot(Addr addr) const
    {
        const CacheSlot &slot = slotFor(addr);
        if (slot.generation == generation_ &&
            slot.pageNum == pageNumber(addr))
            return &slot;
        return nullptr;
    }

    const BaseRange *
    findBase(Addr pageNum) const
    {
        for (const BaseRange &r : base_) {
            if (pageNum >= r.firstPage && pageNum < r.endPage)
                return &r;
        }
        return nullptr;
    }

    /**
     * Words of base page @p pageNum of @p r: a pointer into the base
     * array for a whole page, else @p buf filled with the partial
     * page's words and zeros past the segment.
     */
    static const std::uint64_t *
    basePage(const BaseRange &r, Addr pageNum,
             std::uint64_t (&buf)[wordsPerPage])
    {
        const size_t first = (pageNum - r.firstPage) * wordsPerPage;
        const size_t n = r.numWords - first;
        if (n >= wordsPerPage)
            return r.words + first;
        std::copy(r.words + first, r.words + r.numWords, buf);
        std::fill(buf + n, buf + wordsPerPage, 0);
        return buf;
    }

    /** Slow read: owned page, then base, then 0; never allocates. */
    std::uint64_t
    readMiss(Addr addr) const
    {
        const Addr pn = pageNumber(addr);
        if (auto it = pages_.find(pn); it != pages_.end()) {
            cacheWords(addr, it->second.data(), true);
            return it->second[wordIndex(addr)];
        }
        // Never cache absence: a write may create the page.
        const BaseRange *r = findBase(pn);
        if (!r)
            return 0;
        const size_t first = (pn - r->firstPage) * wordsPerPage;
        if (first + wordsPerPage <= r->numWords)
            cacheWords(addr, r->words + first, false); // whole pages only
        const size_t word = first + wordIndex(addr);
        return word < r->numWords ? r->words[word] : 0;
    }

    /** The owned page holding @p addr, copied from the base (or
     *  zero-filled) on first touch. */
    Page &
    ownPage(Addr addr)
    {
        const Addr pn = pageNumber(addr);
        auto [it, inserted] = pages_.try_emplace(pn);
        if (inserted) {
            if (const BaseRange *r = findBase(pn)) {
                std::uint64_t buf[wordsPerPage];
                const std::uint64_t *words = basePage(*r, pn, buf);
                it->second.assign(words, words + wordsPerPage);
            } else {
                it->second.assign(wordsPerPage, 0);
            }
        }
        return it->second;
    }

    void
    cacheWords(Addr addr, const std::uint64_t *words, bool owned) const
    {
        CacheSlot &slot = slotFor(addr);
        slot.pageNum = pageNumber(addr);
        slot.generation = generation_;
        slot.words = words;
        slot.owned = owned;
    }

    std::unordered_map<Addr, Page> pages_;
    std::vector<BaseRange> base_;
    mutable CacheSlot cache_[cacheSlots];
    std::uint64_t generation_ = 1;
};

} // namespace vca::mem

#endif // VCA_MEM_SPARSE_MEMORY_HH
