package rosa

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"privanalyzer/internal/rewrite"
)

// ErrQueryFile wraps query-file parse failures.
var ErrQueryFile = errors.New("rosa: bad query file")

// ParseQuery reads a bounded model-checking query from a simple sectioned
// text format, so the standalone checker can run hand-written scenarios:
//
//	# comment
//	objects:
//	Process(1,10,11,12,10,11,12,run,set,set)
//	Dir(2,"/etc",511,40,41,3)
//	File(3,"/etc/passwd",0,40,41)
//	User(10)
//	messages:
//	open(1,3,0,0)
//	setuid(1,-1,128)
//	chown(1,-1,-1,41,1)
//	chmod(1,-1,511,0)
//	goal: read 3
//	maxstates: 100000
//	extended: true
//	workers: 4      # search workers per depth level (0 = one per CPU)
//
// Terms use the functional syntax of rewrite.ParseTerm; capability-set
// message arguments are the Set bit patterns (caps.Set values). Goals:
//
//	read <fid>     the file is in some process's read set
//	write <fid>    ... write set
//	port <limit>   some socket bound to a port below limit
//	killed <pid>   the process was terminated
func ParseQuery(src string) (*Query, error) {
	q := &Query{}
	section := ""
	haveGoal := false

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		errf := func(format string, args ...any) error {
			return fmt.Errorf("%w: line %d: %s", ErrQueryFile, lineNo+1, fmt.Sprintf(format, args...))
		}

		lower := strings.ToLower(line)
		switch {
		case lower == "objects:":
			section = "objects"
			continue
		case lower == "messages:":
			section = "messages"
			continue
		case strings.HasPrefix(lower, "goal:"):
			g, err := parseGoalSpec(strings.TrimSpace(line[len("goal:"):]))
			if err != nil {
				return nil, errf("%v", err)
			}
			q.Goal = g
			haveGoal = true
			continue
		case strings.HasPrefix(lower, "maxstates:"):
			n, err := strconv.Atoi(strings.TrimSpace(line[len("maxstates:"):]))
			if err != nil {
				return nil, errf("bad maxstates: %v", err)
			}
			q.MaxStates = n
			continue
		case strings.HasPrefix(lower, "maxdepth:"):
			n, err := strconv.Atoi(strings.TrimSpace(line[len("maxdepth:"):]))
			if err != nil {
				return nil, errf("bad maxdepth: %v", err)
			}
			q.MaxDepth = n
			continue
		case strings.HasPrefix(lower, "extended:"):
			v, err := strconv.ParseBool(strings.TrimSpace(line[len("extended:"):]))
			if err != nil {
				return nil, errf("bad extended: %v", err)
			}
			q.Extended = v
			continue
		case strings.HasPrefix(lower, "workers:"):
			n, err := strconv.Atoi(strings.TrimSpace(line[len("workers:"):]))
			if err != nil {
				return nil, errf("bad workers: %v", err)
			}
			if n > rewrite.MaxWorkers {
				return nil, errf("bad workers: %d exceeds the maximum of %d", n, rewrite.MaxWorkers)
			}
			q.Workers = n
			continue
		}

		t, err := rewrite.ParseTerm(line)
		if err != nil {
			return nil, errf("%v", err)
		}
		switch section {
		case "objects":
			q.Objects = append(q.Objects, t)
		case "messages":
			q.Messages = append(q.Messages, t)
		default:
			return nil, errf("term outside an objects:/messages: section")
		}
	}
	if !haveGoal {
		return nil, fmt.Errorf("%w: missing goal:", ErrQueryFile)
	}
	if len(q.Objects) == 0 {
		return nil, fmt.Errorf("%w: no objects", ErrQueryFile)
	}
	return q, nil
}

func parseGoalSpec(spec string) (rewrite.Goal, error) {
	fields := strings.Fields(spec)
	if len(fields) != 2 {
		return rewrite.Goal{}, fmt.Errorf("goal wants \"<kind> <n>\", got %q", spec)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil {
		return rewrite.Goal{}, fmt.Errorf("bad goal argument %q", fields[1])
	}
	switch strings.ToLower(fields[0]) {
	case "read":
		return GoalFileInReadSet(n), nil
	case "write":
		return GoalFileInWriteSet(n), nil
	case "port":
		return GoalPortBoundBelow(n), nil
	case "killed":
		return GoalProcessTerminated(n), nil
	default:
		return rewrite.Goal{}, fmt.Errorf("unknown goal kind %q (want read/write/port/killed)", fields[0])
	}
}
