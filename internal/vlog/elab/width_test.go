package elab

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vlog"
)

// TestExpressionWidthBudget pins the elaboration-time width budget. Each
// rejected source would make the simulator allocate a value far wider
// than any declaration may be (or, for the overflowing ones, compute a
// wrapped width), so compile check must reject it as a positioned
// elaboration error before anything is built. Nothing here is
// simulated: the sources are only parsed and compile-checked.
func TestExpressionWidthBudget(t *testing.T) {
	rejected := []struct {
		name, src string
		line, col int
		want      string
	}{
		{"replication", `module m(input a, output y);
  assign y = |{1000000000{a}};
endmodule`, 2, 15, "replication count exceeds"},
		{"replication one past", `module m(input a, output y);
  assign y = |{65537{a}};
endmodule`, 2, 15, "replication count exceeds"},
		{"replication of a vector", `module m(input [1:0] a, output y);
  assign y = |{32769{a}};
endmodule`, 2, 15, "replication too wide"},
		// the innermost too-wide node is reported: the third level
		{"nested replication", `module m(input a, output y);
  assign y = |{65536{{65536{{65536{{65536{a}}}}}}}};
endmodule`, 2, 29, "replication too wide"},
		{"count wider than int", `module m(input a, output y);
  assign y = |{64'hffffffffffffffff{a}};
endmodule`, 2, 15, "replication count exceeds"},
		{"zero-width body", `module m(input a, output y);
  assign y = |{32'hffffffff{{0{a}}}};
endmodule`, 2, 15, "replication count exceeds"},
		{"concatenation", `module m(input [40000:0] a, output y);
  assign y = |{a, a};
endmodule`, 2, 15, "concatenation too wide"},
		{"part select", `module m(input a, output y);
  assign y = |a[1000000000:0];
endmodule`, 2, 16, "part select too wide"},
		{"part select at int extremes", `module m(input a, output y);
  assign y = |a[64'sh7fffffffffffffff:64'sh8000000000000000];
endmodule`, 2, 16, "part select too wide"},
		{"lvalue part select", `module m(input a);
  reg r;
  always @(*) r[1000000000:0] = a;
endmodule`, 3, 16, "part select too wide"},
		{"system task argument", `module m(input a);
  initial $display("%b", {1000000000{a}});
endmodule`, 2, 26, "replication count exceeds"},
		{"port connection", `module c(input a); endmodule
module m(input a);
  c c0 (.a({1000000000{a}}));
endmodule`, 3, 12, "replication count exceeds"},
		{"parameter", `module m;
  parameter P = {4096{{4096{1'b1}}}};
endmodule`, 2, 17, "replication too wide"},
		{"parameter concatenation", `module m;
  parameter Q = {4096{16'hffff}};
  parameter P = {Q, Q};
endmodule`, 3, 17, "concatenation too wide"},
		{"declaration spanning int", `module m;
  reg [64'sh7fffffffffffffff:-1] r;
endmodule`, 2, 7, "vector too wide"},
	}
	for _, c := range rejected {
		t.Run(c.name, func(t *testing.T) {
			f, err := vlog.Parse(c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = CompileCheck(f)
			var ee *Error
			if !errors.As(err, &ee) {
				t.Fatalf("compile check = %v, want an elaboration error", err)
			}
			if !strings.Contains(ee.Msg, c.want) {
				t.Errorf("error %q does not mention %q", ee.Msg, c.want)
			}
			if ee.Pos.Line != c.line || ee.Pos.Col != c.col {
				t.Errorf("error at %d:%d, want %d:%d", ee.Pos.Line, ee.Pos.Col, c.line, c.col)
			}
		})
	}

	accepted := []string{
		`module m(input a, output y); assign y = |{65536{a}}; endmodule`,
		`module m(input [32767:0] a, output y); assign y = |{2{a}}; endmodule`,
		`module m(input [65535:0] a, output y); assign y = |a[65535:0]; endmodule`,
		`module m(input a, output y); assign y = |{256{{256{a}}}}; endmodule`,
		`module m; parameter P = {4096{16'hffff}}; endmodule`,
	}
	for _, src := range accepted {
		f, err := vlog.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := CompileCheck(f); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// TestSelfWidthSaturates pins SelfWidth's saturating arithmetic directly.
// Compile check rejects nested replications level by level, before any
// product could overflow, so only a direct call reaches the sums and
// products that would wrap: 2^16 to the fourth power is 2^64, which
// plain int arithmetic wraps to a width of 0.
func TestSelfWidthSaturates(t *testing.T) {
	in := planTestInst(t, `module m; reg a; reg [65535:0] v; endmodule`)
	for _, src := range []string{
		"{65536{{65536{{65536{{65536{a}}}}}}}}",
		"{64'hffffffffffffffff{a}}",
		"{v, v}",
		"{65536{{v, v}}}",
		"v[64'sh7fffffffffffffff:64'sh8000000000000000]",
	} {
		if w := SelfWidth(exprOf(t, in, src), in); w != tooWide {
			t.Errorf("SelfWidth(%s) = %d, want the saturated %d", src, w, tooWide)
		}
	}
}
