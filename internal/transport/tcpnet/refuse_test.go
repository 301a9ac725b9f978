package tcpnet

// Refusals at the connection level. The HELLO version check: driver and
// daemon speak exactly one protocol, so either side refuses a peer
// announcing any other version — with an explicit ERR naming both
// versions, before a byte of DEPLOY moves. And a daemon refuses a
// REDEPLOY shaped for a deployment other than the one it hosts.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// A raw-socket driver announcing protocol 4 or 6 gets an ERR naming both
// versions, and the daemon closes the connection without reading on —
// it never reaches DEPLOY.
func TestServerRefusesVersionMismatch(t *testing.T) {
	for _, v := range []uint16{ProtocolVersion - 1, ProtocolVersion + 1} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			var mu sync.Mutex
			var logs []string
			srv := &Server{Logf: func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}}
			served := make(chan struct{})
			go func() {
				defer close(served)
				srv.Serve(lis)
			}()

			c, err := net.Dial("tcp", lis.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Write(wire.AppendFrame(nil, frameHello, appendU16([]byte(helloMagic), v))); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(c)
			typ, body, err := wire.ReadFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if typ != frameErr {
				t.Fatalf("daemon answered HELLO v%d with %s, want ERR", v, frameName(typ))
			}
			e, err := decodeErr(body)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{fmt.Sprint(v), fmt.Sprint(ProtocolVersion)} {
				if !strings.Contains(e.msg, want) {
					t.Fatalf("refusal %q does not name version %s", e.msg, want)
				}
			}
			// The daemon hung up: the next read ends the stream instead of
			// waiting for a DEPLOY.
			if _, _, err := wire.ReadFrame(br); err == nil {
				t.Fatal("daemon kept the connection open after refusing the version")
			}
			lis.Close()
			<-served
			mu.Lock()
			defer mu.Unlock()
			for _, l := range logs {
				if strings.Contains(l, "hosting") {
					t.Fatalf("refused driver got a deployment: %q", l)
				}
			}
		})
	}
}

// fakeDaemon answers one connection's HELLO with reply (a complete
// frame) and then expects the driver to hang up; the channel yields nil
// when it did, else what went wrong.
func fakeDaemon(t *testing.T, reply []byte) (addr string, hungUp <-chan error) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	ch := make(chan error, 1)
	go func() {
		ch <- func() error {
			c, err := lis.Accept()
			if err != nil {
				return err
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			br := bufio.NewReader(c)
			if _, _, err := wire.ReadFrame(br); err != nil {
				return fmt.Errorf("reading HELLO: %w", err)
			}
			if _, err := c.Write(reply); err != nil {
				return err
			}
			if typ, _, err := wire.ReadFrame(br); !errors.Is(err, io.EOF) {
				return fmt.Errorf("after the reply the driver sent %s (err %v), want a hang-up", frameName(typ), err)
			}
			return nil
		}()
	}()
	return lis.Addr().String(), ch
}

// A driver facing a peer of another protocol version fails Dial promptly
// and ships no fragments — whether the peer refuses with an ERR or
// claims a different version in HELLO-OK.
func TestDialRejectsVersionMismatch(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("x")
	b.AddNode("x")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := partition.Build(g, []int32{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, reply := range map[string][]byte{
		"err": wire.AppendFrame(nil, frameErr, encodeErr(errBody{
			msg: fmt.Sprintf("protocol version mismatch: driver speaks %d, daemon speaks %d", ProtocolVersion, ProtocolVersion+1),
		})),
		"hello-ok-v4": wire.AppendFrame(nil, frameHelloOK, appendU16(nil, ProtocolVersion-1)),
		"hello-ok-v6": wire.AppendFrame(nil, frameHelloOK, appendU16(nil, ProtocolVersion+1)),
	} {
		t.Run(name, func(t *testing.T) {
			addr, hungUp := fakeDaemon(t, reply)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			_, err := Dial(ctx, []string{addr}, fr, Options{})
			if err == nil || !strings.Contains(err.Error(), "version mismatch") {
				t.Fatalf("Dial against a mismatched peer = %v, want a version mismatch", err)
			}
			if el := time.Since(start); el > 5*time.Second {
				t.Fatalf("Dial took %v to fail", el)
			}
			if err := <-hungUp; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A REDEPLOY whose body claims a different deployment size than the
// DEPLOY did is refused with a deployment ERR: its site IDs were only
// range-checked against its own claim, so accepting it could plant an
// owner or watcher ID past the hosted deployment's sites.
func TestServerRefusesSkewedRedeploy(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go (&Server{}).Serve(lis)
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	expect := func(want byte) []byte {
		t.Helper()
		typ, body, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if typ != want {
			t.Fatalf("daemon sent %s, want %s", frameName(typ), frameName(want))
		}
		return body
	}
	send := func(typ byte, body []byte) {
		t.Helper()
		if _, err := c.Write(wire.AppendFrame(nil, typ, body)); err != nil {
			t.Fatal(err)
		}
	}
	empty := func(id int) []byte { return partition.AppendFragment(nil, &partition.Fragment{ID: id}) }

	send(frameHello, appendU16([]byte(helloMagic), ProtocolVersion))
	expect(frameHelloOK)
	send(frameDeploy, encodeDeploy(deployBody{total: 2, hosted: []int{0}, frags: empty(0)}))
	expect(frameDeployed)
	send(frameRedeploy, encodeDeploy(deployBody{total: 9, hosted: []int{5}, frags: empty(5)}))
	e, err := decodeErr(expect(frameErr))
	if err != nil {
		t.Fatal(err)
	}
	if e.qid != 0 || !strings.Contains(e.msg, "REDEPLOY") {
		t.Fatalf("refusal = %+v, want a deployment ERR about the REDEPLOY", e)
	}
}
