package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Labels is the PCF metadata: human-readable names for event types and for
// enumerated values of those types (region ids, data sources, ...).
type Labels struct {
	// Types maps an event type to its label.
	Types map[uint32]string
	// Values maps an event type to its value labels.
	Values map[uint32]map[int64]string
}

// NewLabels creates an empty label set.
func NewLabels() *Labels {
	return &Labels{
		Types:  make(map[uint32]string),
		Values: make(map[uint32]map[int64]string),
	}
}

// SetType names an event type.
func (l *Labels) SetType(typ uint32, name string) { l.Types[typ] = name }

// SetValue names one value of an event type.
func (l *Labels) SetValue(typ uint32, val int64, name string) {
	m, ok := l.Values[typ]
	if !ok {
		m = make(map[int64]string)
		l.Values[typ] = m
	}
	m[val] = name
}

// WritePCF serializes the labels in a simplified PCF form:
//
//	EVENT_TYPE
//	0 <type> <label>
//	VALUES
//	<value> <label>
//	...
func (l *Labels) WritePCF(w io.Writer) error {
	bw := bufio.NewWriter(w)
	types := make([]uint32, 0, len(l.Types))
	for t := range l.Types {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		if _, err := fmt.Fprintf(bw, "EVENT_TYPE\n0 %d %s\n", t, l.Types[t]); err != nil {
			return err
		}
		if vals, ok := l.Values[t]; ok && len(vals) > 0 {
			if _, err := fmt.Fprintln(bw, "VALUES"); err != nil {
				return err
			}
			keys := make([]int64, 0, len(vals))
			for v := range vals {
				keys = append(keys, v)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, v := range keys {
				if _, err := fmt.Fprintf(bw, "%d %s\n", v, vals[v]); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}
