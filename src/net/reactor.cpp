#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <utility>

#include "net/server_core.hpp"
#include "net/session.hpp"

namespace ncpm::net {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

EventLoop::EventLoop() : wheel_(TimerWheel::Clock::now()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw NetError(NetErrc::kIo, std::string("epoll_create1 (") + std::strerror(errno) + ")");
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const int saved = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw NetError(NetErrc::kIo, std::string("eventfd (") + std::strerror(saved) + ")");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::start() {
  thread_ = std::thread([this] { run(); });
}

void EventLoop::stop() {
  if (!thread_.joinable()) return;
  post([this] { stop_ = true; });
  thread_.join();
}

void EventLoop::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; nothing to do.
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

bool EventLoop::on_loop_thread() const noexcept {
  return thread_.joinable() && std::this_thread::get_id() == thread_.get_id();
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw NetError(NetErrc::kIo, std::string("epoll_ctl(ADD) (") + std::strerror(errno) + ")");
  }
  handlers_[fd] = handler;
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

EventLoop::TimerId EventLoop::arm_timer(std::chrono::milliseconds delay,
                                        std::function<void()> on_fire) {
  const TimerId id = wheel_.schedule(TimerWheel::Clock::now(), delay);
  timer_callbacks_[id] = std::move(on_fire);
  return id;
}

void EventLoop::cancel_timer(TimerId id) {
  wheel_.cancel(id);
  timer_callbacks_.erase(id);
}

void EventLoop::defer_close(Socket sock) { pending_close_.push_back(std::move(sock)); }

void EventLoop::drain_wakeup() {
  std::uint64_t counter = 0;
  [[maybe_unused]] const auto n = ::read(wake_fd_, &counter, sizeof(counter));
}

void EventLoop::run() {
  std::vector<epoll_event> events(64);
  std::vector<TimerWheel::TimerId> expired;
  std::deque<Task> batch;
  while (!stop_) {
    int timeout_ms = -1;  // no timer armed: sleep until I/O or a post()
    if (const auto next = wheel_.next_wakeup(TimerWheel::Clock::now())) {
      // Clamped to [0, INT_MAX] before narrowing: epoll_wait reads any
      // negative timeout as "forever", so an overflowed wait must never
      // reach it as one while a timer is armed.
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          next->count(), 0, std::numeric_limits<int>::max()));
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                               timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself failed; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == wake_fd_) {
        drain_wakeup();
        continue;
      }
      // Looked up per event: a handler earlier in this batch may have
      // removed this fd (its close is deferred, so the number is not
      // recycled underneath us).
      const auto it = handlers_.find(fd);
      if (it != handlers_.end()) it->second->on_io(events[static_cast<std::size_t>(i)].events);
    }
    {
      std::lock_guard<std::mutex> lock(tasks_mu_);
      batch.swap(tasks_);
    }
    for (auto& task : batch) task();
    batch.clear();
    expired.clear();
    wheel_.advance(TimerWheel::Clock::now(), expired);
    for (const auto id : expired) {
      const auto it = timer_callbacks_.find(id);
      if (it == timer_callbacks_.end()) continue;  // cancelled mid-batch
      auto callback = std::move(it->second);
      timer_callbacks_.erase(it);
      callback();
    }
    pending_close_.clear();  // batch is over; fd numbers may now be recycled
  }
  pending_close_.clear();
}

// ---------------------------------------------------------------------------
// EpollCore
// ---------------------------------------------------------------------------

namespace detail {
namespace {

class EpollCore final : public ServerCoreImpl, public FdHandler {
 public:
  using ServerCoreImpl::ServerCoreImpl;
  ~EpollCore() override = default;

  void start() override {
    listener_ = Socket::listen_on(config_.bind_address, config_.port, config_.backlog);
    port_ = listener_.local_port();
    listener_.set_nonblocking(true);

    std::size_t n = config_.num_event_loops;
    if (n == 0) {
      const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
      n = std::min<std::size_t>(4, std::max<std::size_t>(1, hw));
    }
    loops_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) loops_.push_back(std::make_unique<LoopState>());
    for (auto& ls : loops_) ls->loop.start();
    // The listener lives on loop 0; all its accept work happens there.
    loops_[0]->loop.post([this] { loops_[0]->loop.add_fd(listener_.fd(), EPOLLIN, this); });
  }

  void stop() override {
    draining_.store(true, std::memory_order_release);
    // Stop accepting: deregister + close the listener on its own loop so
    // this never races the accept handler.
    loops_[0]->loop.post([this] {
      loops_[0]->loop.remove_fd(listener_.fd());
      listener_.close();
    });
    // Drain every session. FIFO task order guarantees any session-creation
    // task already queued runs before its loop's drain sweep.
    for (auto& ls : loops_) {
      auto* state = ls.get();
      state->loop.post([state] {
        const std::vector<std::shared_ptr<Session>> snapshot(state->sessions.begin(),
                                                             state->sessions.end());
        for (const auto& session : snapshot) session->begin_drain();
      });
    }
    {
      std::unique_lock<std::mutex> lock(live_mu_);
      live_cv_.wait(lock, [this] { return live_sessions_ == 0; });
    }
    for (auto& ls : loops_) ls->loop.stop();
  }

  /// Loop 0 thread: the listener is readable.
  void on_io(std::uint32_t /*events*/) override {
    for (;;) {
      Socket sock;
      try {
        sock = listener_.try_accept();
      } catch (const std::exception&) {
        return;  // listener shut down or hard accept failure; stop() owns cleanup
      }
      if (!sock.valid()) return;  // kernel queue drained
      if (draining_.load(std::memory_order_acquire)) continue;  // refused; closes on scope exit
      {
        std::lock_guard<std::mutex> lock(live_mu_);
        ++live_sessions_;
      }
      auto* ls = loops_[next_loop_++ % loops_.size()].get();
      // Hand the socket to its loop's thread; Session state is born and
      // dies there. shared_ptr wrapper because std::function must be
      // copyable and Socket is move-only.
      auto sock_box = std::make_shared<Socket>(std::move(sock));
      ls->loop.post([this, ls, sock_box] {
        auto session = std::make_shared<Session>(
            std::move(*sock_box), ls->loop, config_, engine_, obs_,
            [this, ls](const std::shared_ptr<Session>& closed) {
              ls->sessions.erase(closed);
              std::lock_guard<std::mutex> lock(live_mu_);
              if (--live_sessions_ == 0) live_cv_.notify_all();
            });
        ls->sessions.insert(session);
        session->open();
        // stop() may have swept this loop between the accept and now.
        if (draining_.load(std::memory_order_acquire)) session->begin_drain();
      });
    }
  }

 private:
  struct LoopState {
    EventLoop loop;
    std::unordered_set<std::shared_ptr<Session>> sessions;  ///< loop-thread-only
  };

  Socket listener_;
  std::vector<std::unique_ptr<LoopState>> loops_;
  std::atomic<bool> draining_{false};
  std::size_t next_loop_ = 0;  ///< loop 0 thread only (round-robin cursor)

  std::mutex live_mu_;
  std::condition_variable live_cv_;
  std::size_t live_sessions_ = 0;  ///< guarded by live_mu_
};

}  // namespace

std::unique_ptr<ServerCoreImpl> make_epoll_core(const ServerConfig& config,
                                                engine::Engine& engine, ServerObs& obs) {
  return std::make_unique<EpollCore>(config, engine, obs);
}

}  // namespace detail

}  // namespace ncpm::net
