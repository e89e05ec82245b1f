// User-space VFS interface mirroring the POSIX calls FanStore intercepts
// (paper Listing 1): open/close/read/write/lseek/stat and the directory
// trio. Errors are reported POSIX-style as negative errno values, never as
// exceptions, because the real system sits behind unsuspecting glibc
// callers.
//
// Substitution note (DESIGN.md §1): the paper injects these functions into
// glibc via LD_PRELOAD + trampolines; here the same call table is a virtual
// interface that the Interceptor dispatches on. All semantics — fd tables,
// the multi-read/single-write model, write-once close — live behind this
// interface exactly as they do behind the intercepted glibc symbols.
#pragma once

#include <cerrno>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "format/file_stat.hpp"
#include "util/bytes.hpp"

namespace fanstore::posixfs {

enum class OpenMode {
  kRead,   // O_RDONLY
  kWrite,  // O_WRONLY | O_CREAT | O_TRUNC — FanStore's single-write model
};

enum class Whence { kSet, kCur, kEnd };

struct Dirent {
  std::string name;  // entry name (not full path)
  format::FileType type = format::FileType::kRegular;
};

/// What Vfs::try_serve() is asked: the three whole-object questions a
/// file server answers (stat(), a directory listing, a whole-file read).
enum class ServeOp { kStat, kList, kReadAll };

/// A try_serve() answer. `rc` is 0 or -errno, a final answer either way
/// (-ENOENT is as definitive as a hit).
struct ServeAnswer {
  int rc = 0;
  format::FileStat stat;         // kStat
  std::vector<Dirent> entries;   // kList
  ByteView data;                 // kReadAll: the whole file...
  std::shared_ptr<const void> pin;  // ...valid while this (or a copy) lives
};

/// Abstract filesystem with POSIX-flavoured error handling. Implementations
/// must be thread-safe: DL frameworks issue these calls from many I/O
/// threads concurrently (§II-B).
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Returns a file descriptor (>= 0) or -errno.
  virtual int open(std::string_view path, OpenMode mode) = 0;

  /// Returns 0 or -errno.
  virtual int close(int fd) = 0;

  /// Reads up to buf.size() bytes at the fd's offset; returns bytes read
  /// (0 at EOF) or -errno. Advances the offset.
  virtual std::int64_t read(int fd, MutByteView buf) = 0;

  /// Positional read: up to buf.size() bytes at `offset`, without moving
  /// the fd's cursor; returns bytes read (0 past EOF) or -errno. The
  /// default emulates via lseek+read+lseek and is not atomic against
  /// concurrent cursor users of the same fd; FanStoreFs overrides it with
  /// a cursor-free read that decodes only the touched chunks of a
  /// chunk-compressed file.
  virtual std::int64_t pread(int fd, MutByteView buf, std::uint64_t offset);

  /// Appends/overwrites at the fd's offset; returns bytes written or -errno
  /// (-EFBIG, cursor unchanged, for a write that would end past
  /// kMaxFileBytes).
  virtual std::int64_t write(int fd, ByteView buf) = 0;

  /// Repositions the fd; returns the new offset or -errno.
  virtual std::int64_t lseek(int fd, std::int64_t offset, Whence whence) = 0;

  /// Fills `out`; returns 0 or -errno.
  virtual int stat(std::string_view path, format::FileStat* out) = 0;

  /// Returns a directory handle (>= 0) or -errno.
  virtual int opendir(std::string_view path) = 0;

  /// Next entry, or nullopt at end-of-directory. Invalid handles yield
  /// nullopt as glibc's readdir returns NULL for both cases.
  virtual std::optional<Dirent> readdir(int dir_handle) = 0;

  /// Returns 0 or -errno.
  virtual int closedir(int dir_handle) = 0;

  /// Non-blocking answer for a server's event-loop thread: fills `*out`
  /// and returns true only when answering `op` on `path` needs no I/O, no
  /// RPC, no load and no wait on another thread's work; otherwise returns
  /// false ("would block") and the caller makes the blocking calls
  /// instead. An answer equals what the blocking calls would return and
  /// counts in the metrics (counters and histogram samples) as they
  /// would; it emits no trace spans. The default always reports "would
  /// block".
  virtual bool try_serve(ServeOp op, std::string_view path, ServeAnswer* out);
};

/// lseek() for a Vfs that keeps the cursor itself: moves `*cursor` to
/// `offset` past the start (kSet), `*cursor` (kCur) or `size` (kEnd) and
/// returns the new position. A target that is negative or does not fit in
/// int64 returns -EINVAL and leaves `*cursor` unchanged.
std::int64_t seek_cursor(std::int64_t* cursor, std::int64_t offset,
                         Whence whence, std::size_t size);

/// Largest file a Vfs that buffers writes in RAM grows to (1 TiB).
inline constexpr std::uint64_t kMaxFileBytes = std::uint64_t{1} << 40;

/// write() for a Vfs that buffers the file in RAM: copies `buf` to
/// `*cursor`, zero-filling any gap, advances the cursor and returns
/// buf.size(). A write that would end past kMaxFileBytes returns -EFBIG,
/// and one the buffer cannot grow for returns -ENOMEM; both leave the
/// buffer and `*cursor` unchanged.
std::int64_t write_at_cursor(Bytes* buffer, std::int64_t* cursor, ByteView buf);

/// Answers `op` on `path` through the blocking calls (stat(), opendir()
/// + readdir(), open() + read()): what try_serve() must equal. A kReadAll
/// answer owns its bytes through `pin`.
ServeAnswer serve(Vfs& fs, ServeOp op, std::string_view path);

/// Normalizes "a//b/./c" to "a/b/c"; strips leading and trailing slashes.
/// Rejects ".." (returns empty string) — FanStore paths are dataset-rooted.
std::string normalize_path(std::string_view path);

/// Reads an entire file through any Vfs, kReadFileChunk bytes per read();
/// returns nullopt on error.
std::optional<Bytes> read_file(Vfs& fs, std::string_view path);
inline constexpr std::size_t kReadFileChunk = 64 * 1024;

/// Writes an entire file through any Vfs; returns 0 or -errno.
int write_file(Vfs& fs, std::string_view path, ByteView data);

}  // namespace fanstore::posixfs
