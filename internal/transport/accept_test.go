package transport

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// scriptListener plays back a fixed sequence of Accept results, then
// reports teardown.
type scriptListener struct {
	script []func() (Conn, error)
	pos    int
}

func (l *scriptListener) Accept() (Conn, error) {
	if l.pos >= len(l.script) {
		return nil, ErrClosed
	}
	step := l.script[l.pos]
	l.pos++
	return step()
}

func (l *scriptListener) Close() error { return nil }
func (l *scriptListener) Addr() string { return "script" }

// A flaky listener must not kill the accept loop: transient errors —
// injected or otherwise — are retried and every real connection is still
// handled.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	conn := func() (Conn, error) {
		a, _ := Pipe()
		return a, nil
	}
	fail := func(err error) func() (Conn, error) {
		return func() (Conn, error) { return nil, err }
	}
	l := &scriptListener{script: []func() (Conn, error){
		conn,
		fail(ErrInjected),
		fail(fmt.Errorf("accept tcp: too many open files")),
		conn,
		fail(errors.New("transient reset")),
		fail(errors.New("transient reset again")),
		conn,
	}}
	var handled atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		AcceptLoop(l, nil, func(c Conn) {
			handled.Add(1)
			c.Close()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AcceptLoop did not return on listener teardown")
	}
	if got := handled.Load(); got != 3 {
		t.Fatalf("handled %d connections, want 3", got)
	}
}

// Teardown errors terminate the loop promptly, whichever form they take.
func TestAcceptLoopReturnsOnTeardown(t *testing.T) {
	for name, err := range map[string]error{
		"transport-closed": ErrClosed,
		"net-closed":       net.ErrClosed,
		"wrapped-closed":   fmt.Errorf("accept: %w", net.ErrClosed),
	} {
		t.Run(name, func(t *testing.T) {
			l := &scriptListener{script: []func() (Conn, error){
				func() (Conn, error) { return nil, err },
			}}
			done := make(chan struct{})
			go func() {
				defer close(done)
				AcceptLoop(l, nil, func(c Conn) { c.Close() })
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("AcceptLoop did not return on %v", err)
			}
		})
	}
}

// The stop channel interrupts backoff sleeps, so a server shutting down
// mid-error-burst does not linger for the cumulative backoff (which for
// the scripted 20-error burst would exceed ten seconds).
func TestAcceptLoopStopDuringBackoff(t *testing.T) {
	script := make([]func() (Conn, error), 20)
	for i := range script {
		script[i] = func() (Conn, error) { return nil, errors.New("transient") }
	}
	l := &scriptListener{script: script}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		AcceptLoop(l, stop, func(c Conn) { c.Close() })
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("AcceptLoop ignored stop during backoff")
	}
}

// Acceptor.Close stops its listeners before the owner's teardown runs, so a
// peer redialing a closing component is refused instead of being accepted
// and dropped; it then closes live connections and waits for their
// handlers.
func TestAcceptorCloseStopsListenersFirst(t *testing.T) {
	net := NewInprocNetwork()
	l, err := net.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAcceptor()
	served := make(chan struct{})
	received := make(chan struct{}, 1)
	go func() {
		defer close(served)
		a.Serve(l, func(c Conn) {
			defer c.Close()
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
				received <- struct{}{}
			}
		})
	}()
	client, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(Message{Kind: KindAck, Body: Ack{}}); err != nil {
		t.Fatal(err)
	}
	<-received // the connection is being served

	var redialErr error
	a.Close(func() {
		select {
		case <-a.Done():
		default:
			t.Error("Done still open during shutdown")
		}
		_, redialErr = net.Dial("svc")
	})
	if redialErr == nil {
		t.Fatal("redial during shutdown was accepted; the listener was still open")
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if _, err := client.Recv(); err == nil {
		t.Fatal("client connection still open after Close")
	}
}
