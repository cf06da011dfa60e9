// Client side of the OSIMRPC1 protocol: a blocking connection that sends
// one request frame and reads reply frames. Used by the osim_client tool
// and by the concurrency tests (N threads, one connection each).
#pragma once

#include <string>

#include "serve/protocol.hpp"

namespace osim::serve {

class ClientConnection {
 public:
  /// Connects to the Unix socket at `path`, retrying for up to `retry_ms`
  /// milliseconds (a freshly exec'd server may not be listening yet), then
  /// exchanges handshakes. Throws osim::Error on failure or a version
  /// mismatch.
  static ClientConnection connect_unix(const std::string& path,
                                       int retry_ms = 0);

  ClientConnection(ClientConnection&& other) noexcept;
  ClientConnection& operator=(ClientConnection&& other) noexcept;
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;
  ~ClientConnection();

  /// Sends `message` and blocks until the server's reply frame (which, for
  /// a wait-mode poll, may be minutes away). Throws osim::Error on a
  /// protocol violation or a dropped connection.
  ServerMessage call(const ClientMessage& message);

 private:
  explicit ClientConnection(int fd);
  void handshake();
  ServerMessage read_reply();

  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace osim::serve
