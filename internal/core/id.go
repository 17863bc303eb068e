package core

import (
	"errors"
	"fmt"
	"strings"
)

// ID names a virtual actor: a Kind registered with the runtime plus an
// application-chosen Key. The actor it names is logically always present;
// whether an activation exists in memory is the runtime's business.
type ID struct {
	Kind string
	Key  string
}

// String renders the canonical "Kind/Key" form used by the directory and
// the state table.
func (id ID) String() string { return id.Kind + "/" + id.Key }

// is reports whether s is id's canonical form without rendering it:
// length first, then kind, separator and key.
func (id ID) is(s string) bool {
	n := len(id.Kind)
	return len(s) == n+1+len(id.Key) && s[:n] == id.Kind && s[n] == '/' && s[n+1:] == id.Key
}

// Validate checks that the ID can be routed.
func (id ID) Validate() error {
	if id.Kind == "" {
		return errors.New("core: actor ID has empty kind")
	}
	if id.Key == "" {
		return errors.New("core: actor ID has empty key")
	}
	if strings.ContainsRune(id.Kind, '/') {
		return fmt.Errorf("core: actor kind %q must not contain '/'", id.Kind)
	}
	return nil
}

// ParseID parses the canonical "Kind/Key" form. Keys may contain slashes;
// only the first slash separates kind from key.
func ParseID(s string) (ID, error) {
	i := strings.IndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return ID{}, fmt.Errorf("core: malformed actor id %q", s)
	}
	id := ID{Kind: s[:i], Key: s[i+1:]}
	return id, id.Validate()
}
