"""Run traces: ordered event streams with a terminal summary.

A trace stores its stages in the shape its readers take: one entry
``[stage, payloads, copies]`` per stored stage, whose payloads each of
the ``copies`` stages after it holds again.  Only a quiet stage
(``RunTrace.quiet``) is copied, so a stage is either stored or copied,
never both.  ``blocks`` numbers the event ids, and the writer and the
replays read through it.  A payload carries its kind, a flat string
mapping and its rendered line tail.  Payloads are interned per trace:
all events of one trace with the same kind and payload text share one
read-only payload, so emitting, writing and parsing a trace build and
render each distinct payload once, and no event costs an object of its
own.  No table outlives its trace.  The text form is line-oriented and
canonical, so a cryptographic digest of it is a stable fingerprint of a
run; the digest hashes the chunks as they are rendered, never the whole
text, and the parser reads the text by offset, matching each run's
rendered chunks in place, never through a list of all its lines.  The
text it reads is bytes-like, a read-only map of a file included: it
touches the text only through ``find``, ``rfind``, ``startswith`` (not
on a map), slices and ``len``.  It splits up to 4 KB of ASCII lines at
a time, decodes any other text a line at a time as it reads it, and
matches a run's rendered bytes against the text undecoded; it reads
each line that is not a run's in one place, which also ends a run
whose last stage goes on.  The writer
and the matcher take a run's text from one generator of chunks
(``_run_chunks``), each rendered as bytes by digit columns: one stage's
text repeated, with each digit of the ids and stage numbers that varies
written in column by column, so no number of a long run is formatted
line by line, and one block of stages rewritten in place from chunk to
chunk, in the columns that change.  A replay re-derives the terminal
summary in its one pass over the events, which gives the
self-consistency check.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import NamedTuple


class ConfigError(ValueError):
    """Bad scenario or run configuration; maps to exit code 2."""


class CheckResult(NamedTuple):
    """One named verifier check: its verdict, the event id (or other
    index) that witnesses a failure, and a detail line."""

    name: str
    passed: bool
    witness: object = None
    detail: str = ""

    def line(self) -> str:
        w = self.witness if self.witness is not None else "?"
        verdict = "pass" if self.passed else "fail"
        return f"check {self.name} {verdict} witness {w}"


EVENT_KINDS = frozenset({
    "visit", "init", "select", "declare", "enumerate",
    "inject-converge", "inject-diverge",
    "qlist-set", "qlist-remove", "phi-set",
})


class Payload(dict):
    """A read-only event payload: string keys to string values, with its
    kind, its rendered line tail ``kind k=v ...`` and whether it is
    quiet: a visit, or a ``declare what=gamma act=fin``, which
    re-declares a use the node already holds.  A stage of quiet payloads
    alone changes no state that the engines or the replays keep but the
    stage's own, so it is the one stage a run may copy
    (``RunTrace.quiet``).  A trace shares one payload among all of its
    events of the same kind and text, so no payload may change after it
    is built, or its cached fields would go stale."""

    __slots__ = ("kind", "tail", "quiet")

    def __init__(self, kind: str, items):
        super().__init__(items)
        self.kind = kind
        self.tail = " ".join([kind] + [f"{k}={v}" for k, v in self.items()])
        self.quiet = kind == "visit" or kind == "declare" and (
            self.get("what"), self.get("act")) == ("gamma", "fin")

    def _refuse(self, *args, **kwargs):
        raise TypeError("event payloads are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class RunTrace:
    """A run's events, as one ``[stage, payloads, copies]`` entry per
    stored stage in stage order, and its terminal summary."""

    def __init__(self, construction: str, stages: int):
        self.construction = construction
        self.stages = stages
        self.stored = []  # [stage, its payloads, the stages copying it]
        self.summary = {}
        # (kind, keys, value texts) -> the one payload of that kind and text
        self._payloads = {}

    def emit(self, stage: int, kind: str, **payload) -> None:
        """Append an event at stage, which is the last stored stage or
        one past its copies."""
        # keyed by the value texts, not the values, so values that compare
        # equal but render differently (True and 1, 1 and 1.0) never share
        # a payload
        key = (kind, *payload, *map(str, payload.values()))
        try:
            shared = self._payloads[key]
        except KeyError:
            if kind not in EVENT_KINDS:
                raise ValueError(f"unknown event kind {kind!r}") from None
            shared = self._payloads[key] = Payload(
                kind, [(k, str(v)) for k, v in payload.items()])
        stored = self.stored
        if stored and stored[-1][0] == stage:
            stored[-1][1].append(shared)
        else:
            stored.append([stage, [shared], 0])

    def quiet(self, stage: int) -> bool:
        """Whether the last stored stage is stage and holds quiet payloads
        alone (``Payload.quiet``): the one stage a run may copy."""
        return bool(self.stored) and self.stored[-1][0] == stage and all(
            p.quiet for p in self.stored[-1][1])

    def repeat(self, stop: int) -> None:
        """Copy the last stored stage whole to each stage after it up to
        stop - 1, as its entry's copies.  ValueError unless that stage is
        quiet and stop leaves at least one copy.  The next event goes at
        stop or later."""
        stage = self.stored[-1][0] if self.stored else -1
        if not self.quiet(stage) or stop <= stage + 1:
            raise ValueError(f"no run of stage {stage} up to {stop}: a run "
                             f"copies the quiet last stored stage")
        self.stored[-1][2] = stop - stage - 1

    @property
    def events(self) -> list:
        """Every event's payload in id order, copies included.  Only for
        callers outside the package: no reader in it expands a trace."""
        return [p for _, _, block, copies in blocks(self)
                for p in block * (copies + 1)]

    def finalize(self, summary: dict):
        self.summary = {k: str(v) for k, v in summary.items()}

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        return b"".join(map(bytes, self._chunks())).decode()

    def _chunks(self):
        """The text form as UTF-8, in pieces of whole lines, read through
        ``blocks``: a stage without copies line by line, yielded once
        _BLOCK_LINES lines gather, and a stage with its copies in the
        chunks of _run_chunks, whole blocks from the first, so no copy is
        ever built.  A chunk may be rewritten in place for the next, so
        each is read before the next is asked for."""
        yield f"trace {self.construction} stages={self.stages}\n".encode()
        lines = []  # the lines of the stored stages not yet yielded
        for s, eid, block, copies in blocks(self):
            if not copies:
                tok = f" {s} "
                lines += [f"{i}{tok}{p.tail}\n"
                          for i, p in enumerate(block, eid)]
                if len(lines) >= _BLOCK_LINES:
                    yield "".join(lines).encode()
                    lines = []
                continue
            yield "".join(lines).encode()
            lines = []
            tails = [p.tail.encode() for p in block]
            for _, chunk in _run_chunks(tails, eid, s, copies + 1,
                                        grow=False):
                yield chunk
        yield "".join(lines + [f"summary {k} {self.summary[k]}\n"
                               for k in sorted(self.summary)]).encode()

    @classmethod
    def from_text(cls, text) -> "RunTrace":
        """Parse the text form.  A malformed line, a negative stage count
        in the header and a summary line of other than three tokens
        included, an unknown event kind, an event id out of sequence, a
        stage that goes backwards or a stage at or past the header's
        stage count raises ConfigError naming the line.  Stage 0
        is always in range: the alpha constructions set the bound there
        even in a run of no stages.  Each distinct payload text is parsed
        and its kind checked once, into one payload its events share, and
        the events of one stage, however its number is spelled, go into
        one entry.

        The text is read by offset, up to 4 KB of lines at a time, and
        never split whole: a piece gives the lines ``text.splitlines()``
        gives there, so line numbers are the same (``_lines``).
        A "\\r\\n" ending is read as "\\n", so a CRLF text records the
        same runs.  Where a line opens the next stage with the payload
        that opened the last one, and the last stage is stored and quiet
        (``RunTrace.quiet``), ``_repeated_stages`` says how many stages
        from that line on repeat it whole, and where they end; they
        become its copies, and event ids and line numbers go on past
        them.  Such a stage holds the last stage's payload texts as read,
        in order, at the next stage number and event ids, each line
        exactly ``eid stage text``: a line the per-line path accepts with
        the same payload.  A stage that differs in any character, a blank
        or summary line in it included, goes through the per-line path,
        so errors keep their text and line number.  A run holds whole
        stages: where the per-line path reads an event at the run's last
        stage, that stage leaves the run, stored with the payloads it
        copied, and the event goes on it.  The stage after a run is not
        tried again: the stage before it is copied, not stored.

        The text is bytes-like, such as a read-only map of a trace file.
        A text that holds "\\r" is copied once, with its "\\r\\n"
        rewritten.  The text is decoded a piece at a time as it is read.
        A byte that is not UTF-8 raises UnicodeDecodeError where the parse
        reaches it, so a fault on a piece before it is reported first,
        with the reason and start, the byte's offset in text, that
        decoding the whole text gives."""
        if text.find(b"\r") < 0:
            return cls._parse(text)
        try:
            return cls._parse(text[:].replace(b"\r\n", b"\n"))
        except UnicodeDecodeError:
            # the rewrite moved the offsets: the parse reached the text's
            # first bad byte, so decoding the text whole reports it
            text[:].decode()
            raise

    @classmethod
    def _parse(cls, text) -> "RunTrace":
        """from_text on a text whose "\\r\\n" are rewritten."""
        trace = None
        payloads = {}  # "kind k=v ..." text -> its parsed payload
        texts = {}  # id of a payload -> the UTF-8 text it was parsed from
        # the last stage and its token: a stage is parsed and checked only
        # where its token changes, and on the line after a run
        last_stage, last_tok = 0, None
        count = 0  # the events read, copies included
        pos = lineno = 0  # the offset of the next piece, the lines read
        plain = 0  # the text up to here is read one _piece at a time
        while pos < len(text):
            lines, after, plain = _lines(text, pos, plain)
            split = after > plain  # each line starts past the one before
            # the lines read before these, and the index of pos's line
            first, seen = lineno, 0
            for ln in lines:
                lineno += 1
                toks = ln.split(None, 2)
                if not toks:
                    continue
                try:
                    if trace is None:
                        word, construction, stages_tok = ln.split()
                        key, stages = stages_tok.split("=")
                        if word != "trace" or key != "stages" or \
                                int(stages) < 0:
                            raise ValueError
                        trace = cls(construction, int(stages))
                        stored = trace.stored
                        bound = max(trace.stages, 1)
                        continue
                    if toks[0] == "summary":
                        _, key, value = ln.split()
                        trace.summary[key] = value
                        continue
                    eid, tok, tail = int(toks[0]), toks[1], toks[2]
                    if tok != last_tok:
                        stage = int(tok)
                    payload = payloads.get(tail)
                    if payload is None:
                        kind, *pairs = tail.split()
                        payload = Payload(kind,
                                          [t.split("=", 1) for t in pairs])
                        if kind in EVENT_KINDS:
                            payloads[tail] = payload
                            texts[id(payload)] = tail.encode()
                        else:
                            payload = None
                except (ValueError, IndexError):
                    what = "trace header" if trace is None else "trace line"
                    raise ConfigError(f"line {lineno}: malformed {what} "
                                      f"{ln!r}") from None
                if payload is None:
                    raise ConfigError(f"line {lineno}: unknown event kind "
                                      f"{kind!r}")
                if eid != count:
                    raise ConfigError(f"line {lineno}: event id {eid} out "
                                      f"of sequence, expected {count}")
                if tok != last_tok:
                    if stage == last_stage + 1 and \
                            trace.quiet(last_stage) and payload is current[0]:
                        # a line that shares a piece of _piece's with the
                        # line before never matches from the piece's start:
                        # the run's text has a "\n" where the piece breaks
                        if split:  # pos on to this line's start
                            k = lineno - first - 1
                            pos += sum(map(len, lines[seen:k])) + k - seen
                            seen = k
                        copies, at = _repeated_stages(
                            text, pos, eid, current, texts, stage,
                            bound - stage)
                        if copies:
                            trace.repeat(stage + copies)
                            size = copies * len(current)  # the run's events
                            count += size
                            lineno += size - 1
                            last_stage += copies
                            last_tok = None
                            after = at
                            break
                    if stage < last_stage:
                        raise ConfigError(f"line {lineno}: stage {stage} "
                                          f"after stage {last_stage}")
                    if stage >= bound:
                        raise ConfigError(f"line {lineno}: stage {stage} "
                                          f"past stages={trace.stages}")
                    if not stored or stored[-1][0] != stage:
                        if stored and stored[-1][2] and stage == last_stage:
                            # the run's last stage goes on: it leaves the run
                            stored[-1][2] -= 1
                            current = list(current)
                        else:
                            current = []
                        stored.append([stage, current, 0])
                    last_stage, last_tok = stage, tok
                current.append(payload)
                count += 1
            pos = after
        if trace is None:
            raise ConfigError("missing trace header")
        return trace

    def digest(self) -> str:
        """The sha256 of the text form, fed one chunk at a time."""
        h = hashlib.sha256()
        for chunk in self._chunks():
            h.update(chunk)
        return h.hexdigest()


# the most lines of a block of stages that _run_chunks rewrites in place,
# and of the stored stages the writer gathers into one piece
_BLOCK_LINES = 4096
# the most bytes of whole lines _lines splits in one step
_PIECE_BYTES = 4096
# the ASCII line breaks of str.splitlines but "\n"
_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"


# digit k of the ints 0, 1, 2, ...: one cycle of 10 ** (k + 1) of them,
# for each digit that cycles within a chunk of _BLOCK_LINES ids; a higher
# digit is a few runs of one digit there
_CYCLES = [b"".join(bytes([d]) * 10 ** k for d in b"0123456789")
           for k in range(4)]


def _digits(first: int, count: int, k: int):
    """Digit k, 0 the units, of each of the count ints from first on, as
    ASCII bytes."""
    unit = 10 ** k
    if k < len(_CYCLES) and 10 * unit <= count:
        # a slice of the digit's cycle, repeated
        start = first % (10 * unit)
        reps = (start + count) // (10 * unit) + 1
        return (_CYCLES[k] * reps)[start:start + count]
    out = bytearray()  # a few runs of one digit
    x, end = first, first + count
    while x < end:
        step = min(end, x - x % unit + unit) - x
        out += (b"%d" % (x // unit % 10)) * step
        x += step
    return out


def _write_columns(seg, tails, eid: int, stage: int, count: int,
                   held: tuple, low: int) -> None:
    """Write into seg, the text of count stages whose event ids all have
    eid's digit count and whose stage numbers all have stage's, the
    digit columns from column low up of the ids from eid and the stage
    numbers from stage on, with one extended-slice assignment per line
    of a stage.  Each line of seg holds the right digits below column
    low, and an id from held[0] and a stage number from held[1] up to
    the last written in it, so a column in which those ranges agree is
    left as it is."""
    size, id_w, stage_w = len(tails), len(str(eid)), len(str(stage))
    width = len(seg) // count
    starts, at = [], 0  # where each line of a stage starts
    for tail in tails:
        starts.append(at)
        at += id_w + stage_w + 3 + len(tail)
    # the ids of line i are every size-th one of the chunk's ids
    k, last = low, eid + count * size - 1
    while held[0] // 10 ** k != last // 10 ** k:
        column = _digits(eid, count * size, k)
        for i, at in enumerate(starts):
            seg[at + id_w - 1 - k::width] = column[i::size]
        k += 1
    k, last = low, stage + count - 1
    while held[1] // 10 ** k != last // 10 ** k:
        column = _digits(stage, count, k)
        for at in starts:
            seg[at + id_w + stage_w - k::width] = column
        k += 1


def _run_bytes(tails, eid: int, stage: int, count: int) -> bytearray:
    """The text of count stages, at least one, from the given stage on,
    each line with its "\\n", with events numbered on from eid: one
    stage's payload texts are tails, as UTF-8 bytes.  It is the first
    stage's text repeated, with each digit column that varies written in
    (``_write_columns``), so count is 1 or every event id and every stage
    number has the digit count of the first stage's first line."""
    seg = bytearray(b"".join([b"%d %d %s\n" % (i, stage, tail)
                              for i, tail in enumerate(tails, eid)]))
    if count > 1:
        seg *= count
        _write_columns(seg, tails, eid, stage, count, (eid, stage), 0)
    return seg


def _run_chunks(tails, eid: int, stage: int, count: int, grow=True):
    """The text of count stages as _run_bytes renders it, in chunks of
    whole stages, each as (its stages, its text).  A chunk ends before a
    stage whose event ids or stage number gain a digit, so a stage whose
    own ids cross a power of ten is a chunk of itself, and a chunk holds
    at most a block: the most stages that fit in _BLOCK_LINES lines and
    are a multiple of 10 ** low, or one stage, where low is the largest
    up to 2 for which 10 ** low stages fit.  The writer (grow false) asks for whole blocks
    from the first chunk.  For the run matcher (grow), which compares
    one chunk at a time, a chunk holds at most one stage more than the
    chunks before it together, so a matcher that stops at a chunk has
    compared at most about twice the lines it matched.  Consecutive
    blocks differ by a multiple of 10 ** low in every line's id and
    stage number, so their digit columns below low are the same.  A
    chunk after a block, with the same digit counts as that block, is
    that block cut short or not, with only its columns from low up that
    change rewritten in place.  So a chunk may change once the next one
    is asked for."""
    size = len(tails)
    block = _BLOCK_LINES // size
    low = min(2, len(str(block)) - 1)
    block = max(1, block - block % 10 ** low)
    buf = None  # the last chunk while it is a block
    done = 0
    while done < count:
        t, e = stage + done, eid + done * size
        widths = len(str(e)), len(str(t))
        n = max(1, min(done + 1 if grow else block, block, count - done,
                       10 ** widths[1] - t, (10 ** widths[0] - e) // size))
        # the digit counts of the chunk's last line: where the block's first
        # line has them, the two chunks have them throughout
        if buf is not None and held[2] == (len(str(e + n * size - 1)),
                                           len(str(t + n - 1))):
            del buf[n * len(buf) // block:]
            _write_columns(buf, tails, e, t, n, held, low)
        else:
            buf = _run_bytes(tails, e, t, n)
        held = e, t, widths
        yield n, buf
        if n < block:
            buf = None
        done += n


def _piece(text, pos: int):
    """The lines of text from offset pos, a line's start, up to its next
    "\\n" or its end, as ``text.splitlines()`` gives them there, and the
    offset past that "\\n".  A "\\n" ends a line of its own: the text
    read holds no "\\r\\n".  The piece is decoded with its "\\n", so a
    byte that is not UTF-8 fails as it does in the whole text, and the
    UnicodeDecodeError's offsets are offsets in text."""
    end = text.find(b"\n", pos)
    if end < 0:
        end = len(text)
    try:
        line = text[pos:end + 1].decode().removesuffix("\n")
    except UnicodeDecodeError as ex:
        ex.start += pos
        ex.end += pos
        raise
    # "\r" ends the last line as the "\n" cut off did, never joins a "\r"
    # before it, and makes a line of an empty piece
    return (line + "\r").splitlines(), end + 1


def _lines(text, pos: int, plain: int):
    """The lines of text from offset pos, a line's start, as
    ``text.splitlines()`` gives them there, the offset past them, and the
    offset up to which text is read one piece of ``_piece`` at a time,
    plain or past it: the lines were split on "\\n" alone, each starting
    one past the "\\n" before it, exactly where their end is past it.
    From plain on, the whole lines in up to _PIECE_BYTES from pos are
    split at once where they are ASCII and hold no line break but
    "\\n".  Else one piece is read by ``_piece``, which keeps every
    decoding error where it is, and so is each up to the last "\\n" of
    those bytes."""
    if pos >= plain:
        end = text.rfind(b"\n", pos, pos + _PIECE_BYTES)
        if end >= pos:
            piece = text[pos:end]
            if piece.isascii() and not any(c in piece for c in _BREAKS):
                return piece.decode("ascii").split("\n"), end + 1, plain
            plain = end + 1
    lines, after = _piece(text, pos)
    return lines, after, max(plain, after)


def _holds(text, pos: int, want) -> bool:
    """Whether text holds the bytes want at offset pos, compared in
    place.  A map has no ``startswith``, and its ``find`` in a window of
    want's length tries that one offset, where the ``find`` of ``bytes``
    first spends time linear in want on it."""
    if hasattr(text, "startswith"):
        return text.startswith(want, pos)
    return text.find(want, pos, pos + len(want)) == pos


def _repeated_stages(text, pos: int, eid: int, template, texts,
                     stage: int, most: int):
    """How many of the stages that text opens with at offset pos, at most
    most, repeat the last stage whole, whose payloads are template, and
    the offset past them: each holds the texts those payloads were read
    from (texts maps a payload's id to its UTF-8 text), in order, at
    stage, stage + 1, ..., with the event ids going on from eid, each
    line with its "\\n".  The chunks of ``_run_chunks`` are matched
    against the text in place.  Where a chunk differs, the run ends at
    the stage of the first line that differs, found by a binary search
    over the chunk's whole stages.  Whether the run's last stage goes on
    past it is left to the caller."""
    tails = [texts[id(p)] for p in template]
    done = 0
    for n, want in _run_chunks(tails, eid, stage, most):
        if not _holds(text, pos, want):
            # the most stages of the chunk that the text holds; no id or
            # stage number in a chunk gains a digit, so they are one length
            step = len(want) // n
            k = bisect_left(range(1, n), True, key=lambda k: not _holds(
                text, pos, want[:k * step]))
            return done + k, pos + k * step
        pos += len(want)
        done += n
    return done, pos


def payload_error(eid: int, kind: str, ex: Exception) -> ConfigError:
    """The ConfigError for a KeyError or ValueError met while reading the
    payload of event eid, of the given kind."""
    if isinstance(ex, KeyError):
        return ConfigError(f"event {eid}: {kind} without payload key "
                           f"{ex.args[0]!r}")
    return ConfigError(f"event {eid}: bad {kind} payload: {ex}")


def blocks(trace: RunTrace):
    """The events of trace in id order, as (stage, eid, payloads, copies):
    the payloads are events eid, eid + 1, ... at the given stage, and each
    of the copies stages after it holds them again, at the next ids, and
    nothing else.  The one reader that numbers event ids.  Each stored
    stage comes once, with its copies, and stages go up from block to
    block.  payloads is the trace's own list, which no reader may
    change."""
    eid = 0
    for s, payloads, copies in trace.stored:
        yield s, eid, payloads, copies
        eid += len(payloads) * (copies + 1)


class Summary:
    """The terminal summary as a replay derives it in its one pass, from
    the raw payload texts: A from every enumerate, a node's follower from
    its declare what=follower and its use from any other declare; an
    enumerate drops the node's use, an init drops both."""

    def __init__(self):
        self.A = []
        self.follower = {}  # node text -> live follower text
        self.use = {}  # node text -> live use text

    def read(self, kind: str, p: dict):
        if kind == "enumerate":
            self.A.append(int(p["element"]))
            self.use.pop(p["node"], None)
        elif kind == "declare":
            node = p["node"]
            if p.get("what") == "follower":
                self.follower[node] = p["y"]
            else:
                self.use[node] = p["u"]
        elif kind == "init":
            self.follower.pop(p["node"], None)
            self.use.pop(p["node"], None)

    def entries(self) -> dict:
        """The summary as RunTrace.finalize stores it."""
        out = {"A": ",".join(str(x) for x in sorted(self.A)) or "-"}
        for node in sorted(self.follower):
            state = self.follower[node]
            if node in self.use:
                state += ":" + self.use[node]
            out[f"node.{node}"] = state
        return out
