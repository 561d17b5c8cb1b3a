// Loopback TCP transport for the GDB stub. Deliberately minimal: one
// listener, one accepted connection, blocking reads with a poll variant for
// the Ctrl-C check between run slices. Port 0 binds an ephemeral port
// (reported via port()) so tests never collide.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/bits.hpp"
#include "debug/server.hpp"

namespace s4e::debug {

class TcpChannel final : public ByteChannel {
 public:
  explicit TcpChannel(int fd) : fd_(fd) {}
  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  std::string read_blocking() override;
  std::string read_poll() override;
  bool write_all(std::string_view bytes) override;

  // Deadline read: block up to `timeout_ms` (-1 = forever) for data. An
  // empty return with `timed_out` set means the deadline passed with the
  // peer still connected; empty without it means close/error — so a
  // vanished peer (killed worker, detached client) can never hang the
  // owning loop forever.
  std::string read_for(int timeout_ms, bool& timed_out);

  // Connect to 127.0.0.1:port (a client of a loopback listener, such as
  // the fleet's status endpoint). Null with a message in `error` on
  // failure.
  static std::unique_ptr<TcpChannel> connect_loopback(u16 port,
                                                      std::string& error);

  int fd() const noexcept { return fd_; }

 private:
  int fd_;
};

class TcpListener {
 public:
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Bind and listen on 127.0.0.1:port (port 0 → ephemeral). Returns null
  // with a message in `error` on failure.
  static std::unique_ptr<TcpListener> listen_loopback(u16 port,
                                                      std::string& error);

  // The bound port (resolves port-0 binds).
  u16 port() const noexcept { return port_; }

  // Block until a client connects; null on accept failure.
  std::unique_ptr<TcpChannel> accept_one(std::string& error);

  // Deadline accept: wait up to `timeout_ms` (-1 = forever) for a client.
  // Null with `timed_out` set (and no error) when the deadline passed —
  // the caller's loop stays live even if the expected peer never shows up.
  std::unique_ptr<TcpChannel> accept_one_for(int timeout_ms,
                                             std::string& error,
                                             bool& timed_out);

  int fd() const noexcept { return fd_; }

 private:
  TcpListener(int fd, u16 port) : fd_(fd), port_(port) {}

  int fd_;
  u16 port_;
};

}  // namespace s4e::debug
