package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Accept-loop backoff bounds: the first non-injected transient failure
// retries after acceptBackoffMin, doubling up to acceptBackoffMax.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// AcceptLoop runs l.Accept until the listener is torn down, handing every
// connection to handle (which must not block; spawn per-connection work in
// a goroutine). Injected fault failures retry immediately; any other
// transient error retries with bounded exponential backoff, so one bad
// accept — a transient EMFILE, a half-open TCP reset — cannot permanently
// kill a server's accept loop. The loop returns only on listener teardown
// (ErrClosed, net.ErrClosed, io.EOF) or when stop closes; stop may be nil.
func AcceptLoop(l Listener, stop <-chan struct{}, handle func(Conn)) {
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err == nil {
			backoff = 0
			handle(conn)
			continue
		}
		if errors.Is(err, ErrClosed) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
			return
		}
		if errors.Is(err, ErrInjected) {
			continue
		}
		if backoff == 0 {
			backoff = acceptBackoffMin
		} else if backoff < acceptBackoffMax {
			backoff *= 2
		}
		t := time.NewTimer(backoff)
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// Acceptor owns the accept side of a serving component — the cloud server,
// a shard coordinator, a gossip node, an edge server: the listeners it
// serves, the live connections they accepted, and the goroutines handling
// them. Close stops the listeners before anything else, so a peer redialing
// a component that is shutting down is refused at connect time instead of
// being accepted and dropped, which would burn its retry budget against a
// dying process.
type Acceptor struct {
	mu        sync.Mutex
	listeners []Listener
	conns     map[Conn]struct{}
	done      chan struct{}
	once      sync.Once
	wg        sync.WaitGroup
}

// NewAcceptor returns an open acceptor with nothing served yet.
func NewAcceptor() *Acceptor {
	return &Acceptor{conns: make(map[Conn]struct{}), done: make(chan struct{})}
}

// Done is closed when Close begins.
func (a *Acceptor) Done() <-chan struct{} { return a.done }

// Serve accepts connections on l (see AcceptLoop) until the listener is
// torn down or the acceptor closes, running handle on a goroutine per
// connection; Close closes every connection still open and waits for its
// handler. It blocks; run it in a goroutine.
func (a *Acceptor) Serve(l Listener, handle func(Conn)) {
	a.mu.Lock()
	select {
	case <-a.done:
		a.mu.Unlock()
		l.Close()
		return
	default:
	}
	a.listeners = append(a.listeners, l)
	a.mu.Unlock()
	AcceptLoop(l, a.done, func(conn Conn) {
		a.mu.Lock()
		select {
		case <-a.done:
			a.mu.Unlock()
			conn.Close()
			return
		default:
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			handle(conn)
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	})
}

// Go runs fn on a goroutine Close waits for: background work owned by the
// component (a liveness loop, a recovery re-forward).
func (a *Acceptor) Go(fn func()) {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		fn()
	}()
}

// Close shuts the acceptor down: it closes Done, stops every served
// listener, runs shutdown (the owner's teardown: failing its barriers,
// releasing its store), closes every live connection, and waits for every
// handler and Go goroutine to return. Only the first call runs shutdown;
// every call waits.
func (a *Acceptor) Close(shutdown func()) {
	a.once.Do(func() {
		a.mu.Lock()
		close(a.done)
		listeners := a.listeners
		a.mu.Unlock()
		for _, l := range listeners {
			l.Close()
		}
		shutdown()
		a.mu.Lock()
		for conn := range a.conns {
			conn.Close()
		}
		a.mu.Unlock()
	})
	a.wg.Wait()
}
