// Package streams implements virtual streams: named pub/sub channels whose
// broker state lives in actors, in the style of Orleans streams.
//
// Sensors and other producers publish events to a stream by name; actor
// subscribers receive each event as an Event message through their normal
// mailbox, preserving the single-threaded turn guarantee. Stream brokers
// are virtual actors themselves, so streams need no standing
// infrastructure: an idle stream costs nothing and a busy one is just
// another activation the placement layer can put near its subscribers.
package streams

import (
	"context"
	"fmt"

	"aodb/internal/core"
)

// Kind is the broker actor kind. Register it once per runtime.
const Kind = "sys.stream"

// RegisterKind installs the stream broker actor kind on rt.
func RegisterKind(rt *core.Runtime) error {
	return rt.RegisterKind(Kind, func() core.Actor { return &brokerActor{} })
}

// Event is delivered to each subscriber for every published item.
type Event struct {
	Stream  string
	Seq     uint64
	Payload any
}

// Broker messages.
type (
	// Subscribe adds an actor to the stream's subscriber set.
	Subscribe struct{ Subscriber string }
	// Publish fans Payload out to all subscribers.
	Publish struct{ Payload any }
)

type brokerActor struct {
	subs map[string]struct{}
	seq  uint64
}

func (b *brokerActor) OnActivate(*core.Context) error {
	b.subs = make(map[string]struct{})
	return nil
}

func (b *brokerActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case Subscribe:
		if m.Subscriber == "" {
			return nil, fmt.Errorf("streams: empty subscriber")
		}
		if _, err := core.ParseID(m.Subscriber); err != nil {
			return nil, err
		}
		b.subs[m.Subscriber] = struct{}{}
		return len(b.subs), nil
	case Publish:
		b.seq++
		ev := Event{Stream: ctx.Self().Key, Seq: b.seq, Payload: m.Payload}
		var firstErr error
		for sub := range b.subs {
			id, err := core.ParseID(sub)
			if err != nil {
				continue
			}
			if err := ctx.Tell(id, ev); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("streams: deliver to %s: %w", sub, err)
			}
		}
		return b.seq, firstErr
	default:
		return nil, fmt.Errorf("streams: unknown message %T", msg)
	}
}

// Stream is a client handle for one named stream.
type Stream struct {
	rt   *core.Runtime
	name string
}

// New returns a handle for the stream called name.
func New(rt *core.Runtime, name string) *Stream {
	return &Stream{rt: rt, name: name}
}

func (s *Stream) id() core.ID { return core.ID{Kind: Kind, Key: s.name} }

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Subscribe registers subscriber (an actor ID) for future events.
func (s *Stream) Subscribe(ctx context.Context, subscriber core.ID) error {
	_, err := s.rt.Call(ctx, s.id(), Subscribe{Subscriber: subscriber.String()})
	return err
}

// Publish fans payload out to every subscriber and returns the event's
// sequence number.
func (s *Stream) Publish(ctx context.Context, payload any) (uint64, error) {
	v, err := s.rt.Call(ctx, s.id(), Publish{Payload: payload})
	if err != nil {
		return 0, err
	}
	seq, _ := v.(uint64)
	return seq, nil
}
