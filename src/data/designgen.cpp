#include "data/designgen.h"

#include <array>
#include <stdexcept>
#include <sstream>
#include <vector>

namespace noodle::data {

namespace {

using util::Rng;

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// Sized hex literal, e.g. lit(8, 0xff) == "8'hff".
std::string lit(int width, std::uint64_t value) {
  if (width >= 64) width = 63;
  const std::uint64_t mask = width >= 63 ? ~0ULL : ((1ULL << width) - 1ULL);
  return std::to_string(width) + "'h" + hex(value & mask);
}

std::string gen_counter(const std::string& name, Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(6, 24));
  const int step = static_cast<int>(rng.uniform_int(1, 3));
  const std::uint64_t wrap_at = rng() % (1ULL << std::min(width, 62));
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input en,\n  input load,\n"
     << "  input [" << width - 1 << ":0] load_value,\n"
     << "  output reg [" << width - 1 << ":0] count,\n"
     << "  output wrap\n);\n"
     << "  assign wrap = count == " << lit(width, wrap_at) << ";\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        count <= " << lit(width, 0) << ";\n"
     << "      else if (load)\n        count <= load_value;\n"
     << "      else if (en)\n        count <= count + " << lit(width, static_cast<std::uint64_t>(step)) << ";\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_alu(const std::string& name, Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(8, 32));
  const int n_ops = static_cast<int>(rng.uniform_int(5, 8));
  const char* ops[] = {"a + b", "a - b", "a & b", "a | b", "a ^ b",
                       "a << 1", "a >> 1", "~a"};
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n"
     << "  input [" << width - 1 << ":0] a,\n"
     << "  input [" << width - 1 << ":0] b,\n"
     << "  input [2:0] op,\n"
     << "  output reg [" << width - 1 << ":0] y,\n"
     << "  output reg zero\n);\n"
     << "  reg [" << width - 1 << ":0] result;\n"
     << "  always @(*)\n"
     << "    begin\n"
     << "      case (op)\n";
  for (int i = 0; i < n_ops; ++i) {
    os << "        3'd" << i << ":\n          result = " << ops[i] << ";\n";
  }
  os << "        default:\n          result = a;\n"
     << "      endcase\n"
     << "    end\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        begin\n          y <= " << lit(width, 0)
     << ";\n          zero <= 1'd0;\n        end\n"
     << "      else\n        begin\n          y <= result;\n          zero <= result == "
     << lit(width, 0) << ";\n        end\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_fsm(const std::string& name, Rng& rng) {
  const int n_states = static_cast<int>(rng.uniform_int(4, 8));
  const int state_bits = 3;
  const int out_width = static_cast<int>(rng.uniform_int(2, 8));
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input go,\n  input stop,\n"
     << "  input [3:0] ev,\n"
     << "  output reg [" << out_width - 1 << ":0] act,\n"
     << "  output busy\n);\n"
     << "  reg [" << state_bits - 1 << ":0] state;\n"
     << "  reg [" << state_bits - 1 << ":0] next_state;\n"
     << "  assign busy = state != " << lit(state_bits, 0) << ";\n"
     << "  always @(*)\n"
     << "    begin\n"
     << "      case (state)\n";
  for (int s = 0; s < n_states; ++s) {
    const int succ = static_cast<int>(rng.uniform_int(0, n_states - 1));
    const int alt = static_cast<int>(rng.uniform_int(0, n_states - 1));
    const std::uint64_t ev_match = rng() % 16;
    os << "        " << lit(state_bits, static_cast<std::uint64_t>(s)) << ":\n";
    if (s == 0) {
      os << "          next_state = go ? " << lit(state_bits, 1) << " : "
         << lit(state_bits, 0) << ";\n";
    } else {
      os << "          begin\n"
         << "            if (stop)\n              next_state = " << lit(state_bits, 0)
         << ";\n"
         << "            else if (ev == " << lit(4, ev_match) << ")\n              next_state = "
         << lit(state_bits, static_cast<std::uint64_t>(succ)) << ";\n"
         << "            else\n              next_state = "
         << lit(state_bits, static_cast<std::uint64_t>(alt)) << ";\n"
         << "          end\n";
    }
  }
  os << "        default:\n          next_state = " << lit(state_bits, 0) << ";\n"
     << "      endcase\n"
     << "    end\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        state <= " << lit(state_bits, 0) << ";\n"
     << "      else\n        state <= next_state;\n"
     << "    end\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        act <= " << lit(out_width, 0) << ";\n"
     << "      else\n        act <= {" << (out_width - state_bits > 0
                                               ? std::to_string(out_width - state_bits) +
                                                     "'d0, state"
                                               : "state[" + std::to_string(out_width - 1) +
                                                     ":0]")
     << "};\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_uart_tx(const std::string& name, Rng& rng) {
  const int divisor_bits = static_cast<int>(rng.uniform_int(8, 16));
  const std::uint64_t divisor = rng.uniform_int(16, (1 << std::min(divisor_bits, 14)) - 1);
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input start,\n"
     << "  input [7:0] data,\n"
     << "  output tx,\n  output reg done\n);\n"
     << "  reg [" << divisor_bits - 1 << ":0] baud_cnt;\n"
     << "  reg [3:0] bit_idx;\n"
     << "  reg [9:0] shifter;\n"
     << "  reg active;\n"
     << "  wire tick;\n"
     << "  assign tick = baud_cnt == " << lit(divisor_bits, divisor) << ";\n"
     << "  assign tx = active ? shifter[0] : 1'd1;\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        baud_cnt <= " << lit(divisor_bits, 0) << ";\n"
     << "      else if (tick)\n        baud_cnt <= " << lit(divisor_bits, 0) << ";\n"
     << "      else\n        baud_cnt <= baud_cnt + " << lit(divisor_bits, 1) << ";\n"
     << "    end\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n"
     << "        begin\n"
     << "          active <= 1'd0;\n          bit_idx <= 4'd0;\n"
     << "          shifter <= 10'h3ff;\n          done <= 1'd0;\n"
     << "        end\n"
     << "      else if (start && !active)\n"
     << "        begin\n"
     << "          active <= 1'd1;\n          bit_idx <= 4'd0;\n"
     << "          shifter <= {1'd1, data, 1'd0};\n          done <= 1'd0;\n"
     << "        end\n"
     << "      else if (active && tick)\n"
     << "        begin\n"
     << "          shifter <= {1'd1, shifter[9:1]};\n"
     << "          bit_idx <= bit_idx + 4'd1;\n"
     << "          if (bit_idx == 4'd9)\n"
     << "            begin\n              active <= 1'd0;\n              done <= 1'd1;\n            end\n"
     << "        end\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_lfsr(const std::string& name, Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(8, 32));
  const int n_taps = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<int> taps;
  for (int i = 0; i < n_taps; ++i) {
    taps.push_back(static_cast<int>(rng.uniform_int(0, width - 2)));
  }
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input en,\n"
     << "  input [" << width - 1 << ":0] seed,\n  input load,\n"
     << "  output [" << width - 1 << ":0] value,\n"
     << "  output bit_out\n);\n"
     << "  reg [" << width - 1 << ":0] state;\n"
     << "  wire feedback;\n"
     << "  assign feedback = state[" << width - 1 << "]";
  for (const int tap : taps) os << " ^ state[" << tap << "]";
  os << ";\n"
     << "  assign value = state;\n"
     << "  assign bit_out = state[0];\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        state <= " << lit(width, 1) << ";\n"
     << "      else if (load)\n        state <= seed;\n"
     << "      else if (en)\n        state <= {state[" << width - 2
     << ":0], feedback};\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_crc(const std::string& name, Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(8, 16));
  const std::uint64_t poly = rng() | 1;  // odd polynomial
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input valid,\n"
     << "  input [7:0] data,\n"
     << "  output [" << width - 1 << ":0] crc,\n"
     << "  output nonzero\n);\n"
     << "  reg [" << width - 1 << ":0] state;\n"
     << "  wire [" << width - 1 << ":0] folded;\n"
     << "  assign folded = state ^ {" << (width > 8 ? std::to_string(width - 8) + "'d0, data"
                                                    : "data[" + std::to_string(width - 1) + ":0]")
     << "};\n"
     << "  assign crc = state;\n"
     << "  assign nonzero = state != " << lit(width, 0) << ";\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        state <= " << lit(width, (1ULL << (width - 1)) | 1ULL) << ";\n"
     << "      else if (valid)\n"
     << "        begin\n"
     << "          if (folded[" << width - 1 << "])\n"
     << "            state <= {folded[" << width - 2 << ":0], 1'd0} ^ "
     << lit(width, poly) << ";\n"
     << "          else\n"
     << "            state <= {folded[" << width - 2 << ":0], 1'd0};\n"
     << "        end\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_arbiter(const std::string& name, Rng& rng) {
  const int n = static_cast<int>(rng.uniform_int(3, 6));
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n"
     << "  input [" << n - 1 << ":0] req,\n"
     << "  output reg [" << n - 1 << ":0] grant,\n"
     << "  output any_grant\n);\n"
     << "  reg [" << n - 1 << ":0] pick;\n"
     << "  assign any_grant = grant != " << lit(n, 0) << ";\n"
     << "  always @(*)\n"
     << "    begin\n";
  // Fixed-priority chain rendered as cascading ifs.
  os << "      pick = " << lit(n, 0) << ";\n";
  for (int i = 0; i < n; ++i) {
    os << "      " << (i == 0 ? "if" : "else if") << " (req[" << i << "])\n"
       << "        pick = " << lit(n, 1ULL << i) << ";\n";
  }
  os << "    end\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n        grant <= " << lit(n, 0) << ";\n"
     << "      else\n        grant <= pick;\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_fifo_ctrl(const std::string& name, Rng& rng) {
  const int ptr_bits = static_cast<int>(rng.uniform_int(3, 8));
  std::ostringstream os;
  const std::string depth = lit(ptr_bits + 1, 1ULL << ptr_bits);
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input push,\n  input pop,\n"
     << "  output [" << ptr_bits - 1 << ":0] wr_addr,\n"
     << "  output [" << ptr_bits - 1 << ":0] rd_addr,\n"
     << "  output full,\n  output empty\n);\n"
     << "  reg [" << ptr_bits << ":0] wr_ptr;\n"
     << "  reg [" << ptr_bits << ":0] rd_ptr;\n"
     << "  reg [" << ptr_bits << ":0] level;\n"
     << "  wire do_push;\n  wire do_pop;\n"
     << "  assign wr_addr = wr_ptr[" << ptr_bits - 1 << ":0];\n"
     << "  assign rd_addr = rd_ptr[" << ptr_bits - 1 << ":0];\n"
     << "  assign full = level == " << depth << ";\n"
     << "  assign empty = level == " << lit(ptr_bits + 1, 0) << ";\n"
     << "  assign do_push = push && !full;\n"
     << "  assign do_pop = pop && !empty;\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n"
     << "        begin\n"
     << "          wr_ptr <= " << lit(ptr_bits + 1, 0) << ";\n"
     << "          rd_ptr <= " << lit(ptr_bits + 1, 0) << ";\n"
     << "          level <= " << lit(ptr_bits + 1, 0) << ";\n"
     << "        end\n"
     << "      else\n"
     << "        begin\n"
     << "          if (do_push)\n            wr_ptr <= wr_ptr + " << lit(ptr_bits + 1, 1)
     << ";\n"
     << "          if (do_pop)\n            rd_ptr <= rd_ptr + " << lit(ptr_bits + 1, 1)
     << ";\n"
     << "          if (do_push && !do_pop)\n            level <= level + "
     << lit(ptr_bits + 1, 1) << ";\n"
     << "          else if (do_pop && !do_push)\n            level <= level - "
     << lit(ptr_bits + 1, 1) << ";\n"
     << "        end\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_shifter(const std::string& name, Rng& rng) {
  const int width = 1 << static_cast<int>(rng.uniform_int(3, 5));  // 8..32
  const int sh_bits = width == 8 ? 3 : (width == 16 ? 4 : 5);
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input [" << width - 1 << ":0] value,\n"
     << "  input [" << sh_bits - 1 << ":0] amount,\n"
     << "  input dir,\n"
     << "  input arith,\n"
     << "  output [" << width - 1 << ":0] result,\n"
     << "  output none\n);\n"
     << "  wire [" << width - 1 << ":0] left;\n"
     << "  wire [" << width - 1 << ":0] right;\n"
     << "  wire [" << width - 1 << ":0] aright;\n"
     << "  assign left = value << amount;\n"
     << "  assign right = value >> amount;\n"
     << "  assign aright = arith ? ({" << width << "{value[" << width - 1
     << "]}} << (" << lit(sh_bits + 1, static_cast<std::uint64_t>(width))
     << " - {1'd0, amount})) | right : right;\n"
     << "  assign result = dir ? left : aright;\n"
     << "  assign none = amount == " << lit(sh_bits, 0) << ";\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_comparator_bank(const std::string& name, Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(8, 24));
  const int n_cmp = static_cast<int>(rng.uniform_int(3, 6));
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input [" << width - 1 << ":0] sample,\n"
     << "  input [" << width - 1 << ":0] reference,\n"
     << "  output [" << n_cmp - 1 << ":0] flags,\n"
     << "  output alarm\n);\n";
  std::vector<std::string> flag_exprs;
  for (int i = 0; i < n_cmp; ++i) {
    const std::uint64_t threshold = rng() % (1ULL << std::min(width, 62));
    const char* rel = (i % 3 == 0) ? ">" : ((i % 3 == 1) ? "<" : ">=");
    os << "  wire f" << i << ";\n";
    os << "  assign f" << i << " = sample " << rel << " "
       << lit(width, threshold) << ";\n";
    flag_exprs.push_back("f");
    flag_exprs.back() += std::to_string(i);
  }
  os << "  assign flags = {";
  for (int i = n_cmp - 1; i >= 0; --i) {
    os << flag_exprs[static_cast<std::size_t>(i)];
    if (i != 0) os << ", ";
  }
  os << "};\n"
     << "  assign alarm = (sample == reference) || (flags != " << lit(n_cmp, 0)
     << ");\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_traffic_light(const std::string& name, Rng& rng) {
  const int timer_bits = static_cast<int>(rng.uniform_int(6, 12));
  const std::uint64_t green_time = rng.uniform_int(10, (1 << (timer_bits - 1)) - 1);
  const std::uint64_t yellow_time = rng.uniform_int(3, 9);
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input car_waiting,\n"
     << "  output reg [1:0] main_light,\n"
     << "  output reg [1:0] side_light\n);\n"
     << "  reg [1:0] phase;\n"
     << "  reg [" << timer_bits - 1 << ":0] timer;\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst)\n"
     << "        begin\n          phase <= 2'd0;\n          timer <= "
     << lit(timer_bits, 0) << ";\n        end\n"
     << "      else\n"
     << "        begin\n"
     << "          timer <= timer + " << lit(timer_bits, 1) << ";\n"
     << "          case (phase)\n"
     << "            2'd0:\n"
     << "              if (timer >= " << lit(timer_bits, green_time)
     << " && car_waiting)\n"
     << "                begin\n                  phase <= 2'd1;\n                  timer <= "
     << lit(timer_bits, 0) << ";\n                end\n"
     << "            2'd1:\n"
     << "              if (timer >= " << lit(timer_bits, yellow_time) << ")\n"
     << "                begin\n                  phase <= 2'd2;\n                  timer <= "
     << lit(timer_bits, 0) << ";\n                end\n"
     << "            2'd2:\n"
     << "              if (timer >= " << lit(timer_bits, green_time) << ")\n"
     << "                begin\n                  phase <= 2'd3;\n                  timer <= "
     << lit(timer_bits, 0) << ";\n                end\n"
     << "            default:\n"
     << "              if (timer >= " << lit(timer_bits, yellow_time) << ")\n"
     << "                begin\n                  phase <= 2'd0;\n                  timer <= "
     << lit(timer_bits, 0) << ";\n                end\n"
     << "          endcase\n"
     << "        end\n"
     << "    end\n"
     << "  always @(*)\n"
     << "    begin\n"
     << "      case (phase)\n"
     << "        2'd0:\n          begin\n            main_light = 2'd2;\n            side_light = 2'd0;\n          end\n"
     << "        2'd1:\n          begin\n            main_light = 2'd1;\n            side_light = 2'd0;\n          end\n"
     << "        2'd2:\n          begin\n            main_light = 2'd0;\n            side_light = 2'd2;\n          end\n"
     << "        default:\n          begin\n            main_light = 2'd0;\n            side_light = 2'd1;\n          end\n"
     << "      endcase\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

std::string gen_parity(const std::string& name, Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(8, 32));
  std::ostringstream os;
  os << "module " << name << " (\n"
     << "  input clk,\n  input rst,\n  input valid,\n  input clear,\n"
     << "  input [" << width - 1 << ":0] word,\n"
     << "  output reg parity,\n"
     << "  output reg [" << width - 1 << ":0] checksum,\n"
     << "  output odd\n);\n"
     << "  assign odd = ^checksum;\n"
     << "  always @(posedge clk)\n"
     << "    begin\n"
     << "      if (rst || clear)\n"
     << "        begin\n          parity <= 1'd0;\n          checksum <= "
     << lit(width, 0) << ";\n        end\n"
     << "      else if (valid)\n"
     << "        begin\n"
     << "          parity <= parity ^ (^word);\n"
     << "          checksum <= checksum + word;\n"
     << "        end\n"
     << "    end\n"
     << "endmodule\n";
  return os.str();
}

}  // namespace

const char* to_string(DesignFamily family) noexcept {
  switch (family) {
    case DesignFamily::Counter: return "counter";
    case DesignFamily::Alu: return "alu";
    case DesignFamily::Fsm: return "fsm";
    case DesignFamily::UartTx: return "uart_tx";
    case DesignFamily::Lfsr: return "lfsr";
    case DesignFamily::Crc: return "crc";
    case DesignFamily::Arbiter: return "arbiter";
    case DesignFamily::FifoCtrl: return "fifo_ctrl";
    case DesignFamily::Shifter: return "shifter";
    case DesignFamily::ComparatorBank: return "comparator_bank";
    case DesignFamily::TrafficLight: return "traffic_light";
    case DesignFamily::Parity: return "parity";
  }
  return "unknown";
}

const std::array<DesignFamily, kDesignFamilyCount>& all_design_families() noexcept {
  static const std::array<DesignFamily, kDesignFamilyCount> families = {
      DesignFamily::Counter,       DesignFamily::Alu,
      DesignFamily::Fsm,           DesignFamily::UartTx,
      DesignFamily::Lfsr,          DesignFamily::Crc,
      DesignFamily::Arbiter,       DesignFamily::FifoCtrl,
      DesignFamily::Shifter,       DesignFamily::ComparatorBank,
      DesignFamily::TrafficLight,  DesignFamily::Parity,
  };
  return families;
}

bool is_combinational(DesignFamily family) noexcept {
  return family == DesignFamily::Shifter || family == DesignFamily::ComparatorBank;
}

std::string generate_design(DesignFamily family, const std::string& module_name,
                            util::Rng& rng) {
  switch (family) {
    case DesignFamily::Counter: return gen_counter(module_name, rng);
    case DesignFamily::Alu: return gen_alu(module_name, rng);
    case DesignFamily::Fsm: return gen_fsm(module_name, rng);
    case DesignFamily::UartTx: return gen_uart_tx(module_name, rng);
    case DesignFamily::Lfsr: return gen_lfsr(module_name, rng);
    case DesignFamily::Crc: return gen_crc(module_name, rng);
    case DesignFamily::Arbiter: return gen_arbiter(module_name, rng);
    case DesignFamily::FifoCtrl: return gen_fifo_ctrl(module_name, rng);
    case DesignFamily::Shifter: return gen_shifter(module_name, rng);
    case DesignFamily::ComparatorBank: return gen_comparator_bank(module_name, rng);
    case DesignFamily::TrafficLight: return gen_traffic_light(module_name, rng);
    case DesignFamily::Parity: return gen_parity(module_name, rng);
  }
  throw std::invalid_argument("generate_design: unknown family");
}

}  // namespace noodle::data
