// Command fixture is the reachability scan's planted module: it reaches
// widget.Reached by a call, widget.Busy's marker method only through the
// interface literal it hands to errors.As, widget.Ping by sending one,
// and widget.Counter's state through its handler.
package main

import (
	"errors"
	"fmt"

	"fixture/internal/widget"
)

func main() {
	widget.Reached()
	var err error = widget.Busy{}
	var transient interface{ TransientError() bool }
	fmt.Println(errors.As(err, &transient))
	fmt.Println(widget.Handle(widget.Ping{Seq: 1}))
	var c widget.Counter
	fmt.Println(c.Hit("a"), c.State())
}
