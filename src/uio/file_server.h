/**
 * @file
 * Backing-storage file server.
 *
 * The paper's V++ workstation was diskless; file storage was provided
 * by a server reached over the network, and cached locally as segments.
 * This FileServer stands in for the remote server plus its disk: block
 * reads and writes cost a request overhead plus disk time. File bytes
 * are stored sparsely so large files cost host memory only for chunks
 * actually written.
 */

#ifndef VPP_UIO_FILE_SERVER_H
#define VPP_UIO_FILE_SERVER_H

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/buf.h"
#include "hw/disk.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace vpp::uio {

using FileId = std::uint32_t;

constexpr FileId kInvalidFile = ~FileId{0};

class FileServer
{
  public:
    FileServer(sim::Simulation &s, hw::Disk &disk,
               sim::Duration request_overhead)
        : sim_(&s), disk_(&disk), requestOverhead_(request_overhead)
    {}

    FileId
    createFile(std::string name, std::uint64_t size)
    {
        FileId id = nextFile_++;
        files_[id] = File{std::move(name), size, {}};
        return id;
    }

    bool exists(FileId f) const { return files_.count(f) != 0; }
    std::uint64_t fileSize(FileId f) const { return fileOrThrow(f).size; }
    const std::string &fileName(FileId f) const
    {
        return fileOrThrow(f).name;
    }

    void
    resizeFile(FileId f, std::uint64_t size)
    {
        fileOrThrow(f).size = size;
    }

    /** Server read: request overhead + disk access. */
    sim::Task<>
    readBlock(FileId f, std::uint64_t offset, std::span<std::byte> out)
    {
        readNow(f, offset, out);
        co_await chargeRead(out.size());
    }

    /** Server write: request overhead + disk access. */
    sim::Task<>
    writeBlock(FileId f, std::uint64_t offset,
               std::span<const std::byte> data)
    {
        writeNow(f, offset, data);
        co_await chargeWrite(data.size());
    }

    /** The simulated cost of a server read, without the data. */
    sim::Task<>
    chargeRead(std::uint64_t bytes)
    {
        return disk_->read(bytes, requestOverhead_);
    }

    /** The simulated cost of a server write, without the data. */
    sim::Task<>
    chargeWrite(std::uint64_t bytes)
    {
        return disk_->write(bytes, requestOverhead_);
    }

    /** Functional read with no simulated time (setup, verification). */
    void readNow(FileId f, std::uint64_t offset,
                 std::span<std::byte> out) const;

    /** Functional write with no simulated time (setup, verification). */
    void writeNow(FileId f, std::uint64_t offset,
                  std::span<const std::byte> data);

    /**
     * Refcounted handle to the chunk-aligned range [offset, offset+len)
     * with no simulated time or byte copy when the range is exactly one
     * chunk. A null ref means the range reads as zeroes. Unaligned or
     * multi-chunk ranges fall back to copying into a fresh buffer.
     */
    hw::BufRef shareNow(FileId f, std::uint64_t offset,
                        std::uint64_t len) const;

    /**
     * Publish @p buf as the file bytes at the chunk-aligned range
     * [offset, offset+len) — the zero-copy counterpart of writeNow. A
     * null @p buf stores zeroes (the chunk is dropped, staying sparse).
     * Unaligned or non-chunk-sized ranges fall back to writeNow.
     */
    void adoptNow(FileId f, std::uint64_t offset, std::uint64_t len,
                  hw::BufRef buf);

    hw::Disk &disk() { return *disk_; }

  private:
    // One chunk per page frame, so the paging path (uio/paging.h) can
    // move whole-chunk buffers between frames and files by reference.
    static constexpr std::uint64_t kChunk = 4096;

    struct File
    {
        std::string name;
        std::uint64_t size = 0;
        std::map<std::uint64_t, hw::BufRef> chunks;
    };

    File &fileOrThrow(FileId f);
    const File &fileOrThrow(FileId f) const;

    sim::Simulation *sim_;
    hw::Disk *disk_;
    sim::Duration requestOverhead_;
    FileId nextFile_ = 1;
    std::unordered_map<FileId, File> files_;
};

} // namespace vpp::uio

#endif // VPP_UIO_FILE_SERVER_H
