#include "posixfs/local_vfs.hpp"

#include <algorithm>
#include <system_error>

namespace fanstore::posixfs {

namespace fs = std::filesystem;

LocalVfs::LocalVfs(fs::path root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
}

fs::path LocalVfs::resolve(std::string_view path) const {
  return root_ / normalize_path(path);
}

int LocalVfs::open(std::string_view path, OpenMode mode) {
  const std::string norm = normalize_path(path);
  if (norm.empty()) return -EINVAL;
  const fs::path full = root_ / norm;
  std::fstream stream;
  if (mode == OpenMode::kRead) {
    stream.open(full, std::ios::in | std::ios::binary);
    if (!stream.is_open()) return -ENOENT;
  } else {
    std::error_code ec;
    fs::create_directories(full.parent_path(), ec);
    stream.open(full, std::ios::out | std::ios::binary | std::ios::trunc);
    if (!stream.is_open()) return -EACCES;
  }
  sync::MutexLock lk(mu_);
  const int fd = next_fd_++;
  open_files_[fd] = OpenFile{std::move(stream), mode};
  return fd;
}

int LocalVfs::close(int fd) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  it->second.stream.close();
  open_files_.erase(it);
  return 0;
}

std::int64_t LocalVfs::read(int fd, MutByteView buf) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end() || it->second.mode != OpenMode::kRead) return -EBADF;
  auto& s = it->second.stream;
  s.read(reinterpret_cast<char*>(buf.data()),
         static_cast<std::streamsize>(buf.size()));
  const auto n = s.gcount();
  if (s.eof()) s.clear();  // allow subsequent seeks
  return static_cast<std::int64_t>(n);
}

std::int64_t LocalVfs::write(int fd, ByteView buf) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end() || it->second.mode != OpenMode::kWrite) return -EBADF;
  const std::streamoff pos = it->second.stream.tellp();
  if (pos < 0 || static_cast<std::uint64_t>(pos) + buf.size() > kMaxFileBytes) {
    return -EFBIG;  // same bound as the RAM-buffered backends
  }
  it->second.stream.write(reinterpret_cast<const char*>(buf.data()),
                          static_cast<std::streamsize>(buf.size()));
  return it->second.stream.good() ? static_cast<std::int64_t>(buf.size()) : -EIO;
}

std::int64_t LocalVfs::lseek(int fd, std::int64_t offset, Whence whence) {
  sync::MutexLock lk(mu_);
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return -EBADF;
  auto& s = it->second.stream;
  std::ios_base::seekdir dir = std::ios::beg;
  if (whence == Whence::kCur) dir = std::ios::cur;
  if (whence == Whence::kEnd) dir = std::ios::end;
  std::streamoff pos = -1;
  if (it->second.mode == OpenMode::kRead) {
    s.seekg(offset, dir);
    if (s.good()) pos = s.tellg();
  } else {
    s.seekp(offset, dir);
    if (s.good()) pos = s.tellp();
  }
  if (pos < 0) {
    s.clear();  // the cursor did not move; the next seek must not fail too
    return -EINVAL;
  }
  return static_cast<std::int64_t>(pos);
}

int LocalVfs::stat(std::string_view path, format::FileStat* out) {
  const fs::path full = resolve(path);
  std::error_code ec;
  const auto status = fs::status(full, ec);
  if (ec || status.type() == fs::file_type::not_found) return -ENOENT;
  *out = format::FileStat{};
  if (fs::is_directory(status)) {
    out->type = format::FileType::kDirectory;
    out->mode = 0755;
  } else {
    out->type = format::FileType::kRegular;
    out->size = fs::file_size(full, ec);
  }
  return 0;
}

int LocalVfs::opendir(std::string_view path) {
  const fs::path full = resolve(path);
  std::error_code ec;
  if (!fs::is_directory(full, ec)) return -ENOENT;
  std::vector<Dirent> entries;
  for (const auto& e : fs::directory_iterator(full, ec)) {
    entries.push_back(Dirent{e.path().filename().string(),
                             e.is_directory() ? format::FileType::kDirectory
                                              : format::FileType::kRegular});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Dirent& a, const Dirent& b) { return a.name < b.name; });
  sync::MutexLock lk(mu_);
  const int h = next_dir_++;
  open_dirs_[h] = OpenDir{std::move(entries), 0};
  return h;
}

std::optional<Dirent> LocalVfs::readdir(int dir_handle) {
  sync::MutexLock lk(mu_);
  const auto it = open_dirs_.find(dir_handle);
  if (it == open_dirs_.end()) return std::nullopt;
  if (it->second.next >= it->second.entries.size()) return std::nullopt;
  return it->second.entries[it->second.next++];
}

int LocalVfs::closedir(int dir_handle) {
  sync::MutexLock lk(mu_);
  return open_dirs_.erase(dir_handle) > 0 ? 0 : -EBADF;
}

}  // namespace fanstore::posixfs
