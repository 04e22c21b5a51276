/**
 * @file
 * Unit tests for SparseMemory and the cache timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mem/cache.hh"
#include "mem/sparse_memory.hh"

namespace {

using namespace vca;
using namespace vca::mem;

TEST(SparseMemory, ZeroFillAndRoundTrip)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1234560), 0u);
    m.write(0x1234560, 0xdeadbeef);
    EXPECT_EQ(m.read(0x1234560), 0xdeadbeefu);
    EXPECT_EQ(m.read(0x1234568), 0u);
}

TEST(SparseMemory, DoubleRoundTrip)
{
    SparseMemory m;
    m.writeDouble(0x1000, 3.25);
    EXPECT_DOUBLE_EQ(m.readDouble(0x1000), 3.25);
}

TEST(SparseMemory, PagesAllocatedLazily)
{
    SparseMemory m;
    EXPECT_EQ(m.allocatedPages(), 0u);
    (void)m.read(0x9999);
    EXPECT_EQ(m.allocatedPages(), 0u); // reads do not allocate
    m.write(0x9999, 1);
    EXPECT_EQ(m.allocatedPages(), 1u);
    m.write(0x9999 + SparseMemory::pageBytes, 1);
    EXPECT_EQ(m.allocatedPages(), 2u);
}

// ---------------------------------------------------------------------
// A read-only base image shared copy-on-write
// ---------------------------------------------------------------------

/** Two and a half pages of distinct nonzero words. */
std::vector<std::uint64_t>
baseImage()
{
    std::vector<std::uint64_t> words(SparseMemory::wordsPerPage * 5 / 2);
    for (size_t i = 0; i < words.size(); ++i)
        words[i] = 0x1000 + i;
    return words;
}

constexpr Addr kBase = 0x40'0000;

TEST(SharedBaseMemory, ReadsOfBaseWordsAllocateNothing)
{
    const auto image = baseImage();
    SparseMemory m;
    m.mapBase(kBase, image.data(), image.size());
    EXPECT_FALSE(m.empty());
    for (size_t i = 0; i < image.size(); ++i)
        ASSERT_EQ(m.read(kBase + i * 8), image[i]) << i;
    // Past the segment on its partial last page, and past that page.
    EXPECT_EQ(m.read(kBase + image.size() * 8), 0u);
    EXPECT_EQ(m.read(kBase + 3 * SparseMemory::pageBytes), 0u);
    EXPECT_EQ(m.allocatedPages(), 0u);
}

TEST(SharedBaseMemory, WriteCopiesTheWholePageAndAPartialOne)
{
    const auto image = baseImage();
    SparseMemory m;
    m.mapBase(kBase, image.data(), image.size());
    m.write(kBase + 8, 7);
    EXPECT_EQ(m.allocatedPages(), 1u);
    EXPECT_EQ(m.read(kBase + 8), 7u);
    for (unsigned i = 0; i < SparseMemory::wordsPerPage; ++i) {
        if (i != 1)
            ASSERT_EQ(m.read(kBase + i * 8), image[i]) << i;
    }

    // The partial third page: its copy is zero-filled past the image.
    const Addr third = kBase + 2 * SparseMemory::pageBytes;
    const size_t firstWord = 2 * SparseMemory::wordsPerPage;
    m.write(third, 9);
    EXPECT_EQ(m.allocatedPages(), 2u);
    EXPECT_EQ(m.read(third), 9u);
    for (unsigned i = 1; i < SparseMemory::wordsPerPage; ++i) {
        const size_t w = firstWord + i;
        ASSERT_EQ(m.read(third + i * 8), w < image.size() ? image[w] : 0)
            << i;
    }
}

TEST(SharedBaseMemory, SharersAreIsolatedAndTheBaseIsNeverWritten)
{
    const auto image = baseImage();
    const auto pristine = image;
    SparseMemory a, b;
    a.mapBase(kBase, image.data(), image.size());
    b.mapBase(kBase, image.data(), image.size());
    // Read first so the page pointer is cached read-only, then write
    // through the same slot: the write must copy, not store into the
    // cached base pointer.
    EXPECT_EQ(a.read(kBase + 16), image[2]);
    a.write(kBase + 16, 111);
    EXPECT_EQ(b.read(kBase + 16), image[2]);
    b.write(kBase + 24, 222);
    EXPECT_EQ(a.read(kBase + 16), 111u);
    EXPECT_EQ(a.read(kBase + 24), image[3]);
    EXPECT_EQ(b.read(kBase + 16), image[2]);
    EXPECT_EQ(b.read(kBase + 24), 222u);
    EXPECT_EQ(image, pristine);
}

TEST(SharedBaseMemory, ForEachPageYieldsTheUnionWithOwnedOverriding)
{
    std::vector<std::uint64_t> image = baseImage();
    // Page 1 of the image is all zero: eager loading would never have
    // allocated it, so forEachPage must skip it too.
    std::fill(image.begin() + SparseMemory::wordsPerPage,
              image.begin() + 2 * SparseMemory::wordsPerPage, 0);
    SparseMemory m;
    m.mapBase(kBase, image.data(), image.size());
    m.write(kBase, 42);                 // owned copy of page 0
    m.write(0x10'0000, 5);              // an unrelated owned page

    std::map<Addr, std::vector<std::uint64_t>> seen;
    m.forEachPage([&](Addr base, const std::uint64_t *words) {
        EXPECT_TRUE(seen.emplace(base, std::vector<std::uint64_t>(
            words, words + SparseMemory::wordsPerPage)).second);
    });
    const Addr page2 = kBase + 2 * SparseMemory::pageBytes;
    ASSERT_EQ(seen.size(), 3u);
    ASSERT_TRUE(seen.count(kBase) && seen.count(0x10'0000) &&
                seen.count(page2));
    EXPECT_EQ(seen[kBase][0], 42u);
    EXPECT_EQ(seen[kBase][1], image[1]);
    EXPECT_EQ(seen[0x10'0000][0], 5u);
    const size_t firstWord = 2 * SparseMemory::wordsPerPage;
    for (unsigned i = 0; i < SparseMemory::wordsPerPage; ++i) {
        const size_t w = firstWord + i;
        ASSERT_EQ(seen[page2][i], w < image.size() ? image[w] : 0) << i;
    }
}

TEST(SharedBaseMemory, ClearDropsTheBase)
{
    const auto image = baseImage();
    SparseMemory m;
    m.mapBase(kBase, image.data(), image.size());
    EXPECT_EQ(m.read(kBase), image[0]); // cached read-only
    m.write(kBase + 8, 3);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.read(kBase), 0u);
    EXPECT_EQ(m.read(kBase + 8), 0u);
    unsigned pages = 0;
    m.forEachPage([&](Addr, const std::uint64_t *) { ++pages; });
    EXPECT_EQ(pages, 0u);
}

TEST(SharedBaseMemory, MisalignedOrOverlappingBaseIsRejected)
{
    const auto image = baseImage();
    SparseMemory m;
    EXPECT_THROW(m.mapBase(kBase + 8, image.data(), image.size()),
                 PanicError);
    m.mapBase(kBase, image.data(), image.size());
    EXPECT_THROW(m.mapBase(kBase + 2 * SparseMemory::pageBytes,
                           image.data(), 1),
                 PanicError);
}

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : root_("root"),
          l2_({"l2", 64 * 1024, 4, 64, 15, 32}, nullptr, 250, &root_),
          l1_({"l1", 4 * 1024, 2, 64, 3, 4}, &l2_, 250, &root_)
    {
    }

    stats::StatGroup root_;
    Cache l2_;
    Cache l1_;
};

TEST_F(CacheTest, MissThenHit)
{
    auto r1 = l1_.access(0x1000, false, 0);
    EXPECT_FALSE(r1.hit);
    EXPECT_GE(r1.latency, 3u + 15u); // L1 lat + L2 (miss there too, +250)

    auto r2 = l1_.access(0x1008, false, r1.latency);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.latency, 3u);
    EXPECT_DOUBLE_EQ(l1_.accesses.value(), 2.0);
    EXPECT_DOUBLE_EQ(l1_.misses.value(), 1.0);
    EXPECT_DOUBLE_EQ(l1_.hits.value(), 1.0);
}

TEST_F(CacheTest, L2HitIsCheaperThanMemory)
{
    // Warm L2 with the line, then evict it from L1 and re-access.
    l1_.access(0x1000, false, 0);
    // L1 is 4K 2-way, 64B lines -> 32 sets; two more lines mapping to
    // set 0 evict the first.
    l1_.access(0x1000 + 4096, false, 400);
    l1_.access(0x1000 + 8192, false, 800);
    auto r = l1_.access(0x1000, false, 1200);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 3u + 15u); // L2 hit this time
}

TEST_F(CacheTest, LruReplacement)
{
    // Fill both ways of set 0, touch the first, then insert a third:
    // the second (LRU) must be evicted.
    l1_.access(0x0000, false, 0);
    l1_.access(0x1000, false, 10);
    l1_.access(0x0000, false, 500);  // refresh line A (after fills done)
    l1_.access(0x2000, false, 600);  // evicts B
    auto ra = l1_.access(0x0000, false, 1200);
    EXPECT_TRUE(ra.hit);
    auto rb = l1_.access(0x1000, false, 1300);
    EXPECT_FALSE(rb.hit);
}

TEST_F(CacheTest, WritebackOnDirtyEviction)
{
    l1_.access(0x0000, true, 0);     // dirty line A in set 0
    l1_.access(0x1000, false, 400);
    l1_.access(0x2000, false, 800);  // evicts A -> writeback
    EXPECT_GE(l1_.writebacks.value(), 1.0);
}

TEST_F(CacheTest, InflightMergeCostsResidualLatency)
{
    auto r1 = l1_.access(0x3000, false, 0);
    ASSERT_FALSE(r1.hit);
    // Second access to the same line a few cycles later: residual only.
    auto r2 = l1_.access(0x3008, false, 5);
    EXPECT_LT(r2.latency, r1.latency);
    EXPECT_GE(r2.latency, 3u);
}

TEST_F(CacheTest, MshrExhaustionRejects)
{
    // L1 has 4 MSHRs; issue 5 distinct-line misses at the same cycle.
    unsigned rejects = 0;
    for (unsigned i = 0; i < 5; ++i) {
        auto r = l1_.access(0x10000 + i * 4096, false, 0);
        if (!r.accepted)
            ++rejects;
    }
    EXPECT_EQ(rejects, 1u);
    EXPECT_DOUBLE_EQ(l1_.mshrRejects.value(), 1.0);
    // After the misses complete, accesses are accepted again.
    auto r = l1_.access(0x90000, false, 10'000);
    EXPECT_TRUE(r.accepted);
}

TEST_F(CacheTest, InvalidateAllForgetsEverything)
{
    l1_.access(0x1000, false, 0);
    l1_.invalidateAll();
    auto r = l1_.access(0x1000, false, 5000);
    EXPECT_FALSE(r.hit);
}

TEST(MemSystem, ThreadTagSeparatesSpaces)
{
    const Addr a = MemSystem::threadTag(0, 0x1000);
    const Addr b = MemSystem::threadTag(1, 0x1000);
    EXPECT_NE(a, b);

    MemSystemParams params;
    params.dl1.sizeBytes = 4096;
    params.dl1.assoc = 1;
    MemSystem ms(params);
    ms.dataAccess(a, false, 0);
    auto r = ms.dataAccess(b, false, 1000);
    EXPECT_FALSE(r.hit) << "thread 1 must not hit thread 0's line";
}

TEST(MemSystem, Table1Defaults)
{
    // The defaults must match paper Table 1.
    MemSystemParams p;
    EXPECT_EQ(p.dl1.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.dl1.assoc, 4u);
    EXPECT_EQ(p.dl1.hitLatency, 3u);
    EXPECT_EQ(p.il1.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.il1.hitLatency, 1u);
    EXPECT_EQ(p.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(p.l2.hitLatency, 15u);
    EXPECT_EQ(p.memLatency, 250u);
}

} // namespace
