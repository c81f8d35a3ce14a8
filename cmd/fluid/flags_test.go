package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFlagSurface pins every flag the command registers, with its type and
// default, to the set it had before the shared front end (internal/cli)
// took over the common flags: no flag is added, removed or changed.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"capacity": "float=500",
		"check":    "bool=",
		"epochs":   "int=20000",
		"initial":  "string=",
		"obs":      "string=",
		"progress": "bool=",
		"sample":   "int=1000",
		"seed":     "int=1",
		"tol":      "float=0.1",
		"topo":     "string=",
		"traffic":  "string=",
		"weights":  `string="1,1,2,2,3,3,4,4,5,5"`,
	}
	got := flagSurface(t, func() error { return run([]string{"-h"}) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// flagSurface runs the command with -h and returns every registered flag
// as "type=default", keyed by name, read from the usage text
// flag.PrintDefaults writes to stderr. A zero default prints nothing, and a
// trailing "(default …)" that does not parse as the flag's type belongs to
// the usage text, not to the flag.
func flagSurface(t *testing.T, help func() error) map[string]string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = help()
	os.Stderr = stderr
	w.Close()
	out, _ := io.ReadAll(r)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	got := make(map[string]string)
	for _, block := range strings.Split(strings.TrimSpace(string(out)), "\n  -")[1:] {
		head, usage, _ := strings.Cut(block, "\n")
		name, typ, _ := strings.Cut(head, " ")
		if typ == "" {
			typ = "bool"
		}
		def := ""
		if i := strings.LastIndex(usage, " (default "); i >= 0 && strings.HasSuffix(usage, ")") {
			v := usage[i+len(" (default ") : len(usage)-1]
			var perr error
			switch typ {
			case "bool":
				_, perr = strconv.ParseBool(v)
			case "int":
				_, perr = strconv.ParseInt(v, 10, 64)
			case "float":
				_, perr = strconv.ParseFloat(v, 64)
			case "duration":
				_, perr = time.ParseDuration(v)
			case "string":
				_, perr = strconv.Unquote(v)
			}
			if perr == nil {
				def = v
			}
		}
		got[name] = typ + "=" + def
	}
	return got
}
