#include "flow/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace comove::flow::net {
namespace {

constexpr char kUnixScheme[] = "unix:";
constexpr char kTcpScheme[] = "tcp:";

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message + ": " + ::strerror(errno);
}

/// Splits "tcp:HOST:PORT"; returns false on malformed input.
bool ParseTcp(const std::string& address, std::string* host, int* port) {
  const std::string rest = address.substr(sizeof(kTcpScheme) - 1);
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  *host = rest.substr(0, colon);
  try {
    *port = std::stoi(rest.substr(colon + 1));
  } catch (...) {
    return false;
  }
  return *port >= 0 && *port <= 65535;
}

/// The latency knob that matters on loopback: a frame holds a whole
/// element (a snapshot or a partition group), already syscall-sized, so
/// Nagle only adds delay.
void TuneTcp(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

UniqueFd ConnectOnce(const std::string& address) {
  if (HasPrefix(address, kUnixScheme)) {
    const std::string path = address.substr(sizeof(kUnixScheme) - 1);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return UniqueFd();
    ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) return UniqueFd();
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return UniqueFd();
    }
    return fd;
  }
  if (HasPrefix(address, kTcpScheme)) {
    std::string host;
    int port = 0;
    if (!ParseTcp(address, &host, &port)) return UniqueFd();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return UniqueFd();
    }
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) return UniqueFd();
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return UniqueFd();
    }
    TuneTcp(fd.get());
    return fd;
  }
  return UniqueFd();
}

}  // namespace

bool IsValidAddress(const std::string& address) {
  return HasPrefix(address, kUnixScheme) || HasPrefix(address, kTcpScheme);
}

Listener Listen(const std::string& address, std::string* error) {
  Listener listener;
  if (HasPrefix(address, kUnixScheme)) {
    const std::string path = address.substr(sizeof(kUnixScheme) - 1);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix path empty or too long";
      return listener;
    }
    ::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());  // stale socket from a previous run
    UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      SetError(error, "socket(AF_UNIX)");
      return listener;
    }
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd.get(), SOMAXCONN) != 0) {
      SetError(error, "bind/listen " + address);
      return listener;
    }
    listener.fd = std::move(fd);
    listener.address = address;
    return listener;
  }
  if (HasPrefix(address, kTcpScheme)) {
    std::string host;
    int port = 0;
    if (!ParseTcp(address, &host, &port)) {
      if (error != nullptr) *error = "malformed tcp address " + address;
      return listener;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      if (error != nullptr) *error = "bad tcp host " + host;
      return listener;
    }
    UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
      SetError(error, "socket(AF_INET)");
      return listener;
    }
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd.get(), SOMAXCONN) != 0) {
      SetError(error, "bind/listen " + address);
      return listener;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      SetError(error, "getsockname");
      return listener;
    }
    listener.fd = std::move(fd);
    listener.address =
        std::string(kTcpScheme) + host + ":" +
        std::to_string(ntohs(bound.sin_port));
    return listener;
  }
  if (error != nullptr) *error = "unknown address scheme: " + address;
  return listener;
}

UniqueFd Accept(const Listener& listener, std::int64_t timeout_ms) {
  if (!PollReadable(listener.fd.get(), timeout_ms)) return UniqueFd();
  for (;;) {
    const int fd = ::accept(listener.fd.get(), nullptr, nullptr);
    if (fd >= 0) {
      UniqueFd result(fd);
      if (HasPrefix(listener.address, kTcpScheme)) TuneTcp(fd);
      return result;
    }
    if (errno != EINTR) return UniqueFd();
  }
}

UniqueFd Connect(const std::string& address, std::int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    UniqueFd fd = ConnectOnce(address);
    if (fd.valid()) return fd;
    if (std::chrono::steady_clock::now() >= deadline) return UniqueFd();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace comove::flow::net
