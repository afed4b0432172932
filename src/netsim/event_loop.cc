#include "netsim/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <limits>
#include <stdexcept>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#include <unistd.h>
#else
#include <poll.h>
#endif

namespace vtp::net {

namespace {

/// The timeout for a millisecond-resolution wait: rounded up, so the wake
/// never comes before the deadline; -1 (indefinitely) for a negative one.
int CeilMillis(std::int64_t timeout_ns) {
  if (timeout_ns < 0) return -1;
  const std::int64_t ms = timeout_ns / 1'000'000 + (timeout_ns % 1'000'000 != 0 ? 1 : 0);
  return static_cast<int>(std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
}

#ifdef __linux__
/// epoll_pwait2: epoll_wait with a nanosecond timespec timeout. glibc wraps
/// it from 2.35 on; without the wrapper this reports ENOSYS, as a kernel
/// before 5.11 would, and the caller takes the millisecond path.
int EpollWaitNanos(int epoll_fd, epoll_event* events, int max_events, std::int64_t timeout_ns) {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 35))
  if (timeout_ns < 0) return ::epoll_pwait2(epoll_fd, events, max_events, nullptr, nullptr);
  const timespec timeout{static_cast<std::time_t>(timeout_ns / 1'000'000'000),
                         static_cast<long>(timeout_ns % 1'000'000'000)};
  return ::epoll_pwait2(epoll_fd, events, max_events, &timeout, nullptr);
#else
  (void)epoll_fd, (void)events, (void)max_events, (void)timeout_ns;
  errno = ENOSYS;
  return -1;
#endif
}
#endif

}  // namespace

#ifdef __linux__

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Add(int fd, FdReadHandler on_readable) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("epoll_ctl(ADD) failed");
  }
  handlers_[fd] = std::move(on_readable);
}

void EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::Wait(std::int64_t timeout_ns) {
  epoll_event events[64];
  int n = -1;
  if (pwait2_) {
    n = EpollWaitNanos(epoll_fd_, events, 64, timeout_ns);
    // ENOSYS: a kernel before 5.11. EPERM: a seccomp filter that predates
    // the syscall. Either way, fall back to epoll_wait for good.
    if (n < 0 && (errno == ENOSYS || errno == EPERM)) pwait2_ = false;
  }
  if (!pwait2_) n = ::epoll_wait(epoll_fd_, events, 64, CeilMillis(timeout_ns));
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("epoll_wait failed");
  }
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    it->second(it->first);
    ++dispatched;
  }
  return dispatched;
}

#else  // poll(2) fallback (macOS and other POSIX)

EventLoop::EventLoop() = default;
EventLoop::~EventLoop() = default;

void EventLoop::Add(int fd, FdReadHandler on_readable) { handlers_[fd] = std::move(on_readable); }

void EventLoop::Remove(int fd) { handlers_.erase(fd); }

int EventLoop::Wait(std::int64_t timeout_ns) {
  std::vector<pollfd> fds;
  fds.reserve(handlers_.size());
  for (const auto& [fd, handler] : handlers_) {
    fds.push_back(pollfd{fd, POLLIN, 0});
  }
  int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), CeilMillis(timeout_ns));
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("poll failed");
  }
  int dispatched = 0;
  for (const pollfd& p : fds) {
    if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    auto it = handlers_.find(p.fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    it->second(it->first);
    ++dispatched;
  }
  return dispatched;
}

#endif

}  // namespace vtp::net
