//===- robust/Durability.cpp ----------------------------------------------===//

#include "robust/Durability.h"

#include <cerrno>

#include <fcntl.h>
#include <unistd.h>

using namespace balign;

bool balign::writeAll(int Fd, const void *Data, size_t Size) {
  const auto *Bytes = static_cast<const char *>(Data);
  while (Size != 0) {
    ssize_t N = ::write(Fd, Bytes, Size);
    if (N > 0) {
      Bytes += N;
      Size -= static_cast<size_t>(N);
    } else if (N == 0 || errno != EINTR) {
      return false;
    }
  }
  return true;
}

bool balign::fsyncFd(int Fd) {
  int Rc;
  do {
    Rc = ::fsync(Fd);
  } while (Rc != 0 && errno == EINTR);
  return Rc == 0;
}

bool balign::fsyncParentDirectory(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? std::string(".")
                                               : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  bool Ok = fsyncFd(Fd);
  ::close(Fd);
  return Ok;
}
