package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Handler services one frame type: it receives the request payload and
// returns the ack payload (nil is a valid empty ack) or an error, which the
// server sends back as a TypeError frame. Handlers run on per-frame
// goroutines, so a slow handler delays only its own response — the
// connection keeps reading, which is what lets clients pipeline an
// in-flight window deeper than one.
type Handler func(payload []byte) ([]byte, error)

// Server is the listening end of the transport: it accepts connections,
// reads frames, and dispatches each to the handler registered for its type.
// One server typically carries several flows at once — a serving node
// registers its cache store, its health probe, and its serve endpoint on
// the same port.
type Server struct {
	name    string
	metrics *Metrics
	hook    StateHook

	mu       sync.Mutex
	handlers [numTypes]Handler
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMetrics publishes the server's transport counters into m.
func WithServerMetrics(m *Metrics) ServerOption {
	return func(s *Server) { s.metrics = m }
}

// WithServerStateHook installs a connection-lifecycle callback (see
// StateHook). The observability journal wires in here.
func WithServerStateHook(h StateHook) ServerOption {
	return func(s *Server) { s.hook = h }
}

// NewServer returns a server with no handlers. name appears in diagnostics
// and state-hook events.
func NewServer(name string, opts ...ServerOption) *Server {
	s := &Server{name: name, conns: make(map[net.Conn]struct{})}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handle registers h for frame type t, replacing any previous handler.
// Registration is expected at wiring time, before Serve.
func (s *Server) Handle(t Type, h Handler) {
	if t == 0 || t >= numTypes {
		panic(fmt.Sprintf("wire: Handle of invalid type %d", t))
	}
	s.mu.Lock()
	s.handlers[t] = h
	s.mu.Unlock()
}

// Listen starts accepting on addr ("127.0.0.1:0" picks a free loopback
// port) and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(l)
	return l.Addr(), nil
}

// Serve begins accepting connections from l on a background goroutine.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			if s.metrics != nil {
				s.metrics.Connects.Inc()
			}
			s.emit("accept", conn.RemoteAddr().String())
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
}

// emit fires the state hook if installed.
func (s *Server) emit(event, detail string) {
	if s.hook != nil {
		s.hook(s.name, event, detail)
	}
}

// serveConn reads frames until the connection fails or the server closes,
// dispatching each frame on its own goroutine and serializing response
// writes through a per-connection mutex.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var wmu sync.Mutex
	var handlers sync.WaitGroup
	defer func() {
		handlers.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if s.metrics != nil {
			s.metrics.Disconnects.Inc()
		}
		s.emit("disconnect", conn.RemoteAddr().String())
	}()

	respond := func(f Frame) {
		wmu.Lock()
		n, err := WriteFrame(conn, f)
		wmu.Unlock()
		if s.metrics != nil && err == nil {
			s.metrics.FramesSent.Inc()
			s.metrics.BytesSent.Add(int64(n))
		}
	}

	for {
		f, n, err := ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.emit("read_error", err.Error())
			}
			return
		}
		if s.metrics != nil {
			s.metrics.FramesReceived.Inc()
			s.metrics.BytesReceived.Add(int64(n))
		}
		s.mu.Lock()
		h := s.handlers[f.Type]
		s.mu.Unlock()
		if h == nil {
			respond(Frame{Type: TypeError, ID: f.ID,
				Payload: EncodeString(nil, fmt.Sprintf("wire: %s: no handler for %s", s.name, f.Type))})
			continue
		}
		// The payload aliases the read buffer, which the next ReadFrame
		// call replaces — but ReadFrame allocates per frame, so handing it
		// to the handler goroutine is safe without a copy.
		handlers.Add(1)
		go func(f Frame) {
			defer handlers.Done()
			out, err := h(f.Payload)
			if err != nil {
				respond(Frame{Type: TypeError, ID: f.ID, Payload: EncodeString(nil, err.Error())})
				return
			}
			respond(Frame{Type: TypeAck, ID: f.ID, Payload: out})
		}(f)
	}
}

// DropConnections severs every live connection without stopping the
// listener — the fault-injection entry point for "the network cable was
// pulled": clients observe a broken stream and must reconnect.
func (s *Server) DropConnections() int {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// Close stops the listener and severs every connection. Safe to call more
// than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.DropConnections()
	s.wg.Wait()
}
