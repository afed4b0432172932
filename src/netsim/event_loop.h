// A minimal readiness event loop for the socket Medium backend.
//
// epoll on Linux, poll(2) everywhere else — the surface is the small subset
// both can serve: register a nonblocking fd with a read callback, wait with
// a timeout, dispatch. The loop knows nothing about timers; SocketMedium
// pairs it with a WallClockDriver so the wait ends at the next timer-wheel
// deadline (sleep, don't spin — DESIGN §14). How close to that deadline
// depends on the backend: epoll_pwait2 (Linux 5.11+) sleeps to the
// nanosecond, plus the kernel's timer slack (50 µs by default); plain
// epoll_wait (older kernels) and poll(2) take milliseconds, so the timeout
// is rounded up to the next whole millisecond and a wake may come up to
// 1 ms after the deadline. No backend wakes before it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

namespace vtp::net {

/// Invoked when `fd` is readable. Handlers should drain the fd (read until
/// EAGAIN): readiness is level-triggered on both backends, but draining
/// keeps syscall counts down.
using FdReadHandler = std::function<void(int fd)>;

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for readability. The fd must already be nonblocking.
  void Add(int fd, FdReadHandler on_readable);

  /// Deregisters `fd` (does not close it).
  void Remove(int fd);

  /// Waits up to `timeout_ns` nanoseconds (negative = indefinitely, 0 = just
  /// poll) and dispatches read handlers for every ready fd. Returns the
  /// number of fds dispatched (0 on timeout). A backend with millisecond
  /// resolution rounds the timeout up, never down.
  int Wait(std::int64_t timeout_ns);

  std::size_t watched_fds() const { return handlers_.size(); }

 private:
  std::map<int, FdReadHandler> handlers_;
#ifdef __linux__
  int epoll_fd_ = -1;
  bool pwait2_ = true;  ///< cleared once epoll_pwait2 is refused (ENOSYS/EPERM)
#endif
};

}  // namespace vtp::net
