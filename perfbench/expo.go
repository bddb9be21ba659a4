package main

import (
	"bytes"
	"fmt"
	"strconv"
)

// levelFamily is the per-process series the scrape check counts.
const levelFamily = "accrual_suspicion_level"

// exposition is a parsed /v1/metrics body. The benchmark keeps its own
// parser so that a change to the repo's exposition writer and parser
// together cannot pass unnoticed.
type exposition struct {
	// global holds every series without a proc label, keyed as written
	// (name plus label block).
	global map[string]float64
	// perProc counts the series carrying a proc label, by family.
	perProc map[string]int
	samples int
}

// parseExposition parses Prometheus text format 0.0.4 as accruald writes
// it: comment lines, and `name[{labels}] value` samples. Any other line
// is an error.
func parseExposition(body []byte) (*exposition, error) {
	ex := &exposition{global: make(map[string]float64, 96), perProc: make(map[string]int, 8)}
	for lineNo := 1; len(body) > 0; lineNo++ {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		nameEnd := bytes.IndexAny(line, "{ ")
		if nameEnd <= 0 {
			return nil, fmt.Errorf("exposition line %d: no metric name in %q", lineNo, line)
		}
		keyEnd := nameEnd
		if line[nameEnd] == '{' {
			end := labelBlockEnd(line[nameEnd:])
			if end < 0 {
				return nil, fmt.Errorf("exposition line %d: unterminated labels in %q", lineNo, line)
			}
			keyEnd = nameEnd + end
		}
		if keyEnd >= len(line) || line[keyEnd] != ' ' {
			return nil, fmt.Errorf("exposition line %d: no value in %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(string(line[keyEnd+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %v", lineNo, err)
		}
		ex.samples++
		if bytes.HasPrefix(line[nameEnd:keyEnd], []byte(`{proc="`)) {
			ex.perProc[string(line[:nameEnd])]++
		} else {
			ex.global[string(line[:keyEnd])] = v
		}
	}
	return ex, nil
}

// labelBlockEnd returns the index just past the '}' closing the label
// block that starts at b[0] == '{', honouring quoted values and
// backslash escapes; -1 when the block never closes.
func labelBlockEnd(b []byte) int {
	quoted := false
	for i := 1; i < len(b); i++ {
		switch {
		case quoted && b[i] == '\\':
			i++
		case b[i] == '"':
			quoted = !quoted
		case !quoted && b[i] == '}':
			return i + 1
		}
	}
	return -1
}

// counter reads a series that must be present and hold a whole number.
func (ex *exposition) counter(key string) (uint64, error) {
	v, ok := ex.global[key]
	if !ok {
		return 0, fmt.Errorf("exposition: series %s missing", key)
	}
	if v < 0 || v != float64(uint64(v)) {
		return 0, fmt.Errorf("exposition: series %s = %v is not a count", key, v)
	}
	return uint64(v), nil
}
