package engine

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hawq/internal/resource"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// setting is one session setting: how SET parses and applies a value,
// and how SHOW renders it (in a column named after the setting). SET
// and SHOW read the one table of them, so SHOW knows every name SET
// accepts.
type setting struct {
	set  func(s *Session, v string) error
	show func(s *Session) types.Datum
}

// settings holds every name SET accepts, lower case.
var settings = map[string]setting{
	"transaction_isolation": {
		set:  func(s *Session, v string) error { return assign(&s.level)(tx.ParseIsolationLevel(v)) },
		show: func(s *Session) types.Datum { return types.NewString(s.level.String()) },
	},
	"statement_timeout": {
		set:  func(s *Session, v string) error { return assign(&s.timeout)(parseTimeout(v)) },
		show: func(s *Session) types.Datum { return types.NewString(s.timeout.String()) },
	},
	"slow_query_log_threshold": {
		set:  func(s *Session, v string) error { return assign(&s.slowThresh)(parseTimeout(v)) },
		show: func(s *Session) types.Datum { return types.NewString(s.slowThresh.String()) },
	},
	"work_mem": {
		set:  func(s *Session, v string) error { return assign(&s.workMem)(resource.ParseBytes(v)) },
		show: func(s *Session) types.Datum { return types.NewString(resource.FormatBytes(s.workMem)) },
	},
	"resource_queue": {
		set: func(s *Session, v string) error {
			name := strings.ToLower(strings.TrimSpace(v))
			if name == "none" {
				name = ""
			}
			if name != "" && s.eng.res.Lookup(name) == nil {
				return fmt.Errorf("engine: resource queue %q does not exist", name)
			}
			s.queue = name
			return nil
		},
		show: func(s *Session) types.Datum {
			if s.queue == "" {
				return types.NewString("none")
			}
			return types.NewString(s.queue)
		},
	},
}

// assign returns a function that stores a parsed value in *dst, unless
// parsing failed: the setting keeps its value on a bad SET.
func assign[T any](dst *T) func(T, error) error {
	return func(v T, err error) error {
		if err == nil {
			*dst = v
		}
		return err
	}
}

// parseTimeout reads a duration-valued setting (statement_timeout,
// slow_query_log_threshold): a bare integer is milliseconds (postgres
// convention), otherwise a Go duration string; 0 disables the setting.
func parseTimeout(v string) (time.Duration, error) {
	if ms, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
		if ms < 0 {
			return 0, fmt.Errorf("engine: timeout setting must be >= 0")
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil || d < 0 {
		return 0, fmt.Errorf("engine: bad timeout value %q", v)
	}
	return d, nil
}
