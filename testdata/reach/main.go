// Command fixture is the reachability scan's planted module: it reaches
// widget.Reached by a call, widget.Busy's marker method only through the
// interface literal it hands to errors.As, and widget.Ping by sending one.
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
}
