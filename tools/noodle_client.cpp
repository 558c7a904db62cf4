// noodle_client — the load-driving counterpart to `noodled --listen`: read
// request lines from stdin, spray them across N concurrent TCP connections,
// and print every response line to stdout. The CI socket smoke and the
// drain/overload acceptance checks are scripted with it:
//
//   ls designs/*.v | ./build/noodle_client --port 7077 --connections 8
//   ls designs/*.v | ./build/noodle_client --port 7077 --repeat 25
//
// Lines are dealt round-robin to connections; each connection sends its
// share --repeat times, then shutdown(SHUT_WR) and reads until the server
// closes. Responses print whole lines only (a reader thread reassembles
// socket chunks), so downstream awk always sees untorn records — and a
// torn final line, the signature of a server that died mid-write, is
// itself counted as a failure.
//
// Exit status: 0 iff every connection connected, wrote its full share, and
// drained to EOF with no error and no torn trailing line. The CONTENT of
// responses (BUSY, TIMEOUT, verdicts) is the caller's to judge; transport
// health is this tool's.

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "util/string_util.h"

using namespace noodle;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  int port = -1;
  std::size_t connections = 1;
  std::size_t repeat = 1;
};

[[noreturn]] void usage(const char* argv0, const std::string& error = {}) {
  if (!error.empty()) std::cerr << "noodle_client: " << error << "\n";
  std::cerr << "usage: " << argv0
            << " --port PORT [--host ADDR] [--connections N] [--repeat K]\n"
               "reads request lines from stdin, deals them round-robin across"
               " N concurrent connections (each sent K times), prints every"
               " response line to stdout; exit 0 iff transport stayed clean\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0], std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  auto next_number = [&](int& i) -> std::uint64_t {
    const std::string flag = argv[i];
    const std::optional<std::uint64_t> value = util::parse_unsigned(next_value(i));
    if (!value) usage(argv[0], "bad numeric value for " + flag);
    return *value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host") {
      options.host = next_value(i);
    } else if (arg == "--port") {
      const std::uint64_t port = next_number(i);
      if (port == 0 || port > 65535) usage(argv[0], "--port wants 1-65535");
      options.port = static_cast<int>(port);
    } else if (arg == "--connections") {
      options.connections = next_number(i);
    } else if (arg == "--repeat") {
      options.repeat = next_number(i);
    } else {
      usage(argv[0], "unknown option " + arg);
    }
  }
  if (options.port < 0) usage(argv[0], "--port is required");
  if (options.connections == 0) usage(argv[0], "--connections must be positive");
  if (options.repeat == 0) usage(argv[0], "--repeat must be positive");
  return options;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t put =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

std::mutex g_out_mu;

/// Reads until EOF, printing complete lines only. Returns false on a read
/// error or a torn (newline-less) trailing fragment.
bool drain_responses(int fd) {
  std::string acc;
  char buf[16384];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      std::lock_guard<std::mutex> lock(g_out_mu);
      std::cerr << "noodle_client: recv: " << std::strerror(errno) << "\n";
      return false;
    }
    if (got == 0) break;
    acc.append(buf, static_cast<std::size_t>(got));
    std::size_t pos;
    while ((pos = acc.find('\n')) != std::string::npos) {
      std::lock_guard<std::mutex> lock(g_out_mu);
      std::cout.write(acc.data(), static_cast<std::streamsize>(pos + 1));
      std::cout.flush();
      acc.erase(0, pos + 1);
    }
  }
  if (!acc.empty()) {
    std::lock_guard<std::mutex> lock(g_out_mu);
    std::cerr << "noodle_client: torn trailing response line (" << acc.size()
              << " bytes, no newline)\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty()) lines.push_back(line);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(options.connections);
  for (std::size_t c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      std::error_code ec;
      net::Fd fd = net::connect_tcp(options.host,
                                    static_cast<std::uint16_t>(options.port), ec);
      if (!fd) {
        std::lock_guard<std::mutex> lock(g_out_mu);
        std::cerr << "noodle_client: connect " << options.host << ":"
                  << options.port << ": " << ec.message() << "\n";
        ++failures;
        return;
      }
      // Reader runs concurrently with the writer: a pipelined burst must
      // never deadlock on the server's write-buffer backpressure.
      bool read_ok = false;
      std::thread reader([&] { read_ok = drain_responses(fd.get()); });
      bool write_ok = true;
      for (std::size_t r = 0; r < options.repeat && write_ok; ++r) {
        for (std::size_t i = c; i < lines.size(); i += options.connections) {
          if (!send_all(fd.get(), lines[i] + "\n")) {
            std::lock_guard<std::mutex> lock(g_out_mu);
            std::cerr << "noodle_client: send: " << std::strerror(errno) << "\n";
            write_ok = false;
            break;
          }
        }
      }
      ::shutdown(fd.get(), SHUT_WR);
      reader.join();
      if (!write_ok || !read_ok) ++failures;
    });
  }
  for (std::thread& t : threads) t.join();
  return failures.load() == 0 ? 0 : 1;
}
