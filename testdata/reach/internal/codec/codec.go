// Package codec stands in for the wire codec's type registry.
package codec

// Register records a message type the wire may carry.
func Register(v any) {}
