#include "uio/paging.h"

namespace vpp::uio {

namespace {

/**
 * A page's frame buffers in flight: a one-frame page holds its buffer
 * in place, a larger page keeps them in pooled storage.
 */
class PageBufs
{
  public:
    explicit PageBufs(std::uint32_t frames)
    {
        if (frames > 1)
            more_.resize(frames);
    }

    hw::BufRef &
    operator[](std::uint32_t i)
    {
        return more_.empty() ? one_ : more_[i];
    }

  private:
    hw::BufRef one_;
    sim::PoolVector<hw::BufRef> more_;
};

kernel::PageEntry &
entryOrThrow(kernel::Kernel &k, kernel::SegmentId seg,
             kernel::PageIndex page, const char *what)
{
    kernel::PageEntry *e = k.segment(seg).findPage(page);
    if (!e)
        throw kernel::KernelError(kernel::KernelErrc::PageMissing, what);
    return *e;
}

/**
 * Charge one server transfer (read or write), absorbing injected disk
 * errors with bounded retry + doubling backoff. Error-free transfers
 * take exactly one charge with no extra events.
 */
sim::Task<>
chargeWithRetry(kernel::Kernel &k, FileServer &srv, std::uint64_t bytes,
                bool is_write, const char *what)
{
    sim::Duration backoff = kIoRetryBackoff;
    for (int attempt = 1;; ++attempt) {
        // co_await is not permitted inside a catch handler, so the
        // failure is latched and the backoff runs after the try block.
        bool failed = false;
        std::string err;
        try {
            if (is_write)
                co_await srv.chargeWrite(bytes);
            else
                co_await srv.chargeRead(bytes);
        } catch (const hw::DiskError &e) {
            failed = true;
            err = e.what();
        }
        if (!failed)
            co_return;
        ++k.stats().ioErrors;
        if (attempt >= kMaxIoRetries) {
            throw kernel::KernelError(
                kernel::KernelErrc::IoError,
                std::string(what) + ": " + err + " after " +
                    std::to_string(attempt) + " attempts");
        }
        ++k.stats().ioRetries;
        srv.disk().noteRetry();
        co_await k.simulation().delay(backoff);
        backoff *= 2;
    }
}

} // namespace

void
pageInNow(kernel::Kernel &k, FileServer &srv, FileId f,
          std::uint64_t offset, kernel::SegmentId seg,
          kernel::PageIndex page)
{
    kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageIn");
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t fpp = k.segment(seg).pageSize() / fs;
    for (std::uint32_t i = 0; i < fpp; ++i)
        pm.adoptFrame(e.frame + i,
                      srv.shareNow(f, offset + i * std::uint64_t{fs}, fs));
}

void
pageOutNow(kernel::Kernel &k, FileServer &srv, FileId f,
           std::uint64_t offset, kernel::SegmentId seg,
           kernel::PageIndex page)
{
    kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageOut");
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t fpp = k.segment(seg).pageSize() / fs;
    for (std::uint32_t i = 0; i < fpp; ++i)
        srv.adoptNow(f, offset + i * std::uint64_t{fs}, fs,
                     pm.shareFrame(e.frame + i));
}

sim::Task<>
pageIn(kernel::Kernel &k, FileServer &srv, FileId f,
       std::uint64_t offset, kernel::SegmentId seg,
       kernel::PageIndex page)
{
    // Snapshot the file bytes on entry (refcounted, no copy), charge the
    // transfer, then install — the timeline readBlock-into-a-buffer +
    // writePageData always had. Copy-on-write keeps the snapshot stable
    // if the chunks are rewritten during the transfer.
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t ps = k.segment(seg).pageSize();
    const std::uint32_t fpp = ps / fs;
    PageBufs bufs(fpp);
    for (std::uint32_t i = 0; i < fpp; ++i)
        bufs[i] = srv.shareNow(f, offset + i * std::uint64_t{fs}, fs);
    co_await chargeWithRetry(k, srv, ps, false, "pageIn");
    kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageIn");
    for (std::uint32_t i = 0; i < fpp; ++i)
        pm.adoptFrame(e.frame + i, std::move(bufs[i]));
}

sim::Task<>
pageOut(kernel::Kernel &k, FileServer &srv, FileId f,
        std::uint64_t offset, kernel::SegmentId seg,
        kernel::PageIndex page)
{
    // Snapshot the page on entry, charge the kernel copy, publish, then
    // charge the server write — the timeline of readPageData +
    // chargeCopy + writeBlock.
    hw::PhysicalMemory &pm = k.memory();
    const std::uint32_t fs = pm.frameSize();
    const std::uint32_t ps = k.segment(seg).pageSize();
    const std::uint32_t fpp = ps / fs;
    PageBufs bufs(fpp);
    {
        kernel::PageEntry &e = entryOrThrow(k, seg, page, "pageOut");
        for (std::uint32_t i = 0; i < fpp; ++i)
            bufs[i] = pm.shareFrame(e.frame + i);
    }
    co_await k.chargeCopy(ps);
    for (std::uint32_t i = 0; i < fpp; ++i)
        srv.adoptNow(f, offset + i * std::uint64_t{fs}, fs,
                     std::move(bufs[i]));
    co_await chargeWithRetry(k, srv, ps, true, "pageOut");
}

} // namespace vpp::uio
