#include "obs/introspect.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <string_view>

#include "obs/export.h"
#include "obs/obs.h"

namespace logmine::obs {
namespace {

constexpr size_t kMaxRequestBytes = 4096;
constexpr size_t kMaxJournalTail = 4096;
// Journal lines STATUSZ scans for its recent stages.
constexpr size_t kStatuszTail = 64;

// "JOURNAL TAIL" (32 lines) or "JOURNAL TAIL <digits>", the count
// clamped to [1, kMaxJournalTail]; anything else is not this command.
bool ParseJournalTail(const std::string& line, size_t* n) {
  constexpr std::string_view kCommand = "JOURNAL TAIL";
  if (line == kCommand) {
    *n = 32;
    return true;
  }
  if (line.size() <= kCommand.size() + 1 || line.rfind(kCommand, 0) != 0 ||
      line[kCommand.size()] != ' ') {
    return false;
  }
  size_t count = 0;
  for (size_t i = kCommand.size() + 1; i < line.size(); ++i) {
    if (line[i] < '0' || line[i] > '9') return false;
    count = std::min(count * 10 + static_cast<size_t>(line[i] - '0'),
                     kMaxJournalTail);
  }
  *n = std::max<size_t>(count, 1);
  return true;
}

Status Errno(std::string what) {
  what += ": ";
  what += std::strerror(errno);
  return Status::Internal(std::move(what));
}

// Sends all of `data`, tolerating short writes; a dead peer aborts.
void SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return;
    data.remove_prefix(static_cast<size_t>(n));
  }
}

}  // namespace

Result<std::unique_ptr<IntrospectionServer>> IntrospectionServer::Start(
    const std::string& socket_path, IntrospectionHandlers handlers) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long for sun_path: " +
                                   socket_path);
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) return Errno("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = Errno("bind " + socket_path);
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 8) != 0) {
    const Status status = Errno("listen " + socket_path);
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    return status;
  }
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    const Status status = Errno("pipe");
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
    return status;
  }
  return std::unique_ptr<IntrospectionServer>(new IntrospectionServer(
      socket_path, std::move(handlers), listen_fd, wake[0], wake[1]));
}

IntrospectionServer::IntrospectionServer(std::string socket_path,
                                         IntrospectionHandlers handlers,
                                         int listen_fd, int wake_read_fd,
                                         int wake_write_fd)
    : socket_path_(std::move(socket_path)),
      handlers_(std::move(handlers)),
      listen_fd_(listen_fd),
      wake_read_fd_(wake_read_fd),
      wake_write_fd_(wake_write_fd),
      thread_([this] { Serve(); }) {}

IntrospectionServer::~IntrospectionServer() { Stop(); }

void IntrospectionServer::Stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  ::unlink(socket_path_.c_str());
}

uint64_t IntrospectionServer::requests_served() const {
  return requests_.load(std::memory_order_relaxed);
}

void IntrospectionServer::Serve() {
  // fd -> unprocessed request bytes. Connections are cheap (local
  // scrapers); poll() multiplexes them all on this one thread.
  std::map<int, std::string> clients;
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, buffer] : clients) {
      fds.push_back({fd, POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/250) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // Stop() woke us
    if ((fds[1].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0) clients.emplace(client, std::string());
    }
    for (size_t i = 2; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int fd = fds[i].fd;
      char buf[1024];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ::close(fd);
        clients.erase(fd);
        continue;
      }
      std::string& pending = clients[fd];
      pending.append(buf, static_cast<size_t>(n));
      size_t newline;
      while ((newline = pending.find('\n')) != std::string::npos) {
        std::string line = pending.substr(0, newline);
        pending.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        SendAll(fd, HandleRequest(line));
      }
      if (pending.size() > kMaxRequestBytes) {
        ::close(fd);  // a line that long is not one of our commands
        clients.erase(fd);
      }
    }
  }
  for (const auto& [fd, buffer] : clients) ::close(fd);
}

std::string IntrospectionServer::HandleRequest(const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string payload;
  if (line == "STATUSZ") {
    payload = handlers_.statusz ? handlers_.statusz() : "";
  } else if (line == "METRICS") {
    payload = handlers_.metrics ? handlers_.metrics() : "";
  } else if (line == "HEALTH") {
    payload = handlers_.health ? handlers_.health() : "ok";
  } else if (size_t n = 0; ParseJournalTail(line, &n)) {
    if (handlers_.journal_tail) {
      for (const std::string& journal_line : handlers_.journal_tail(n)) {
        payload += journal_line;
        payload += '\n';
      }
      if (!payload.empty()) payload.pop_back();
    }
  } else {
    payload = "ERR unknown command";
  }
  // "."-terminated framing; a payload line of "." would break it, but
  // no handler emits one (JSON, OpenMetrics and tables never do).
  if (!payload.empty() && payload.back() != '\n') payload += '\n';
  payload += ".\n";
  return payload;
}

IntrospectionHandlers MakeObsHandlers(ObsContext* context,
                                      std::function<std::string()> health) {
  IntrospectionHandlers handlers;
  handlers.statusz = [context] {
    std::string page = "run " + context->journal().run_id() + "\n";
    page += "== metrics (non-zero) ==\n";
    page += context->metrics().Snapshot().ToText();
    // The journal tail's stage records (the lines carrying dur_ns, each
    // with cpu_ns and max_rss_kb), verbatim and oldest first.
    page += "== recent stages ==\n";
    for (const std::string& line : context->journal().Tail(kStatuszTail)) {
      if (line.find("\"dur_ns\":") == std::string::npos) continue;
      page += line;
      page += '\n';
    }
    return page;
  };
  handlers.metrics = [context] {
    return ToOpenMetrics(context->metrics().Snapshot());
  };
  handlers.health = std::move(health);
  handlers.journal_tail = [context](size_t n) {
    return context->journal().Tail(n);
  };
  return handlers;
}

Result<std::string> IntrospectionQuery(const std::string& socket_path,
                                       const std::string& request) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("connect " + socket_path);
    ::close(fd);
    return status;
  }
  const std::string line = request + "\n";
  SendAll(fd, line);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
    if (response == ".\n" ||
        (response.size() >= 3 &&
         response.compare(response.size() - 3, 3, "\n.\n") == 0)) {
      break;
    }
  }
  ::close(fd);
  // Strip the terminator line.
  if (response == ".\n") return std::string();
  const size_t at = response.rfind("\n.\n");
  if (at == std::string::npos) {
    return Status::Internal("truncated introspection response");
  }
  return response.substr(0, at + 1);
}

}  // namespace logmine::obs
