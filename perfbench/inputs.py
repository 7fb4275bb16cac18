"""Seeded inputs owned by the benchmark: mailboxes, mock scripts, store
history and the agent question mix.

Nothing here imports ``semaq.bench``, so editing the program's own offline
bench cannot change a workload.  Every generator takes a ``random.Random``
built from the seed, so one seed always yields byte-identical inputs.  Each
email carries its ground truth in plain text markers; the oracle functions
below read them back, and the mock rules key on the same markers, so the
expected outputs and call counts are recomputed from corpus text alone.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass

from semaq.backend import MockRule, ModelSpec

RHO = 0.156
DEAL_ONLY_SHARE = 0.05
BAIT_PER_MAILBOX = 2

DEAL_NAMES = ("Raptor", "Deathstar", "Chewco", "Jedi")
MARKER_DEAL = "special purpose entity"
MARKER_LOSS = "keep the losses off the books"
MARKER_URGENT = "before end of day"
SENDERS = ("dana", "miguel", "priya", "jordan", "sam", "ines", "viktor", "lee")
QUARTERS = ("Q1", "Q2", "Q3", "Q4")

_OPENERS = (
    "Following up on this morning's call.",
    "Quick note before I head into meetings.",
    "Looping everyone in.",
    "As discussed, putting this in writing.",
    "Circling back on the open items.",
)
URGENT_CLOSER = f"Flag any concerns {MARKER_URGENT}."
_CLOSERS = (
    "Please keep this to the named recipients.",
    "Happy to walk through details on Friday.",
    "More once legal has had a look.",
)
_MUNDANE = (
    "The garage on level two is closed next week; badge parking opens at six.",
    "Payroll portal maintenance is scheduled for Saturday night.",
    "The offsite agenda is posted; lunch orders are due Wednesday.",
    "Printer on the fourth floor is out of toner again, ticket filed.",
    "New hire orientation moved to the large conference room.",
    "Quarterly timesheets are due before the holiday, no extensions.",
    "The cafeteria is trialing a late service window this month.",
    "IT will rotate VPN certificates Thursday; expect one re-login.",
    "The wellness fair signup sheet is by the elevators.",
    "Facilities is repainting the stairwells floor by floor.",
    "Expense reports now need a scanned receipt for every line.",
    "The shuttle to the north campus runs every twenty minutes.",
)

# --- model catalogs -------------------------------------------------------------

AGENT_MODEL = ModelSpec("agent-model", 0.002, 0.006, 0.90, 1.0)
TRIAGE_MODELS = (
    ModelSpec("op-cheap", 0.0004, 0.0008, 0.80, 0.5),
    ModelSpec("op-strong", 0.002, 0.004, 0.95, 1.0),
)
SESSION_MODELS = (
    ModelSpec("op-nano", 0.0001, 0.0002, 0.70, 0.3),
    ModelSpec("op-cheap", 0.0004, 0.0008, 0.80, 0.5),
    ModelSpec("op-mid", 0.001, 0.002, 0.88, 0.7),
    ModelSpec("op-strong", 0.002, 0.004, 0.95, 1.0),
)

# --- operator menu ----------------------------------------------------------------

PRED_DEAL = "the email mentions a code-named special purpose deal"
PRED_LOSS = "the email discusses hiding or moving financial losses"
PRED_URGENT = "the email asks for a reply before a same-day deadline"
MAP_DEAL = "extract the code name of the deal the email discusses"
MAP_SENDER = "extract the first name of the person who signed the email"
MAP_QUARTER = "extract the fiscal quarter whose close the email refers to"

# The text of pipelines/email_triage.pz, owned here so the workload cannot
# drift with the example file.
TRIAGE_PIPELINE = (
    "scan(emails)\n"
    f'  | sem_filter("{PRED_DEAL}")\n'
    f'  | sem_filter("{PRED_LOSS}")\n'
    f'  | sem_map("{MAP_DEAL}", {{deal: text}})'
)
TRIAGE_LIMIT = 10
TRIAGE_LIMITED_PIPELINE = (TRIAGE_PIPELINE
                           + f"\n  | project(path, deal)\n  | limit({TRIAGE_LIMIT})")


@dataclass(frozen=True)
class MenuOp:
    """One semantic operator of the agent menu with its oracle."""

    text: str          # pipeline syntax
    phrase: str        # how a question words it
    kind: str          # filter | map
    field: str = ""    # output field of a map


MENU = (
    MenuOp(f'sem_filter("{PRED_DEAL}")', "mention a code-named deal", "filter"),
    MenuOp(f'sem_filter("{PRED_LOSS}")', "discuss hiding losses", "filter"),
    MenuOp(f'sem_filter("{PRED_URGENT}")', "ask for a same-day reply", "filter"),
    MenuOp(f'sem_map("{MAP_DEAL}", {{deal: text}})', "name the deal", "map", "deal"),
    MenuOp(f'sem_map("{MAP_SENDER}", {{sender: text}})', "name the signer",
           "map", "sender"),
    MenuOp(f'sem_map("{MAP_QUARTER}", {{quarter: text}})', "name the quarter",
           "map", "quarter"),
)
SESSION_LIMIT = 20
TRIAGE_OPS = (MENU[0], MENU[1], MENU[3])


def oracle_filter(index: int, text: str) -> bool:
    marker = (MARKER_DEAL, MARKER_LOSS, MARKER_URGENT)[index]
    return marker in text


def oracle_map(field: str, text: str) -> str:
    if field == "deal":
        return next((kw for kw in DEAL_NAMES if kw in text), "none")
    if field == "sender":
        return text.rsplit("\n- ", 1)[1]
    return next((q for q in QUARTERS if f"{q} close" in text), "none")


def op_rules() -> list[MockRule]:
    """Scripted operator-model behaviour for every operator in the menu.

    Yes-rules key on the marker phrases; maps answer from the deal name,
    the signature line or the quarter-close phrase.  The first live match
    wins, so each fallback follows the specific rules it backs up.
    """
    rules = [
        MockRule(re.escape(pred) + r"[\s\S]*" + re.escape(marker), "yes", "regex")
        for pred, marker in ((PRED_DEAL, MARKER_DEAL), (PRED_LOSS, MARKER_LOSS),
                             (PRED_URGENT, MARKER_URGENT))
    ]
    rules.append(MockRule("PREDICATE:", "no"))
    for kw in DEAL_NAMES:
        rules.append(MockRule(re.escape(MAP_DEAL) + r"[\s\S]*" + kw,
                              f"deal: {kw}", "regex"))
    rules.append(MockRule(MAP_DEAL, "deal: none"))
    for name in SENDERS:
        rules.append(MockRule(re.escape(MAP_SENDER) + r"[\s\S]*\n- " + name + r"\n",
                              f"sender: {name}", "regex"))
    for q in QUARTERS:
        rules.append(MockRule(re.escape(MAP_QUARTER) + r"[\s\S]*" + q + " close",
                              f"quarter: {q}", "regex"))
    rules.append(MockRule(MAP_QUARTER, "quarter: none"))
    return rules


# --- mailboxes ------------------------------------------------------------------------

@dataclass(frozen=True)
class Mailbox:
    """One generated mailbox: the dataset lines the program loads, and each
    email's path and text for the oracle."""

    name: str
    lines: tuple[str, ...]       # one bare JSON field mapping per email
    paths: tuple[str, ...]
    texts: tuple[str, ...]

    def origin(self, i: int) -> str:
        return f"{self.name}/{self.paths[i]}#0"


def _email(kind: str, closer: str, rng: random.Random) -> str:
    sender = rng.choice(SENDERS)
    kw = rng.choice(DEAL_NAMES)
    quarter = rng.choice(QUARTERS)
    if kind == "relevant":
        body = (f"Subject: Re: {kw} close\n\nTeam,\n{rng.choice(_OPENERS)}\n"
                f"We need sign-off on the {kw} structure before the {quarter} "
                f"close. Treasury wants the {MARKER_DEAL} to absorb the "
                f"writedown so we {MARKER_LOSS}.")
    elif kind == "deal-only":
        body = (f"Subject: {kw} filing\n\nAll,\n{rng.choice(_OPENERS)}\n"
                f"The {MARKER_DEAL} paperwork for {kw} goes out with the "
                f"{quarter} close package; auditors have the draft.")
    elif kind == "bait":
        body = (f"Subject: {kw} maintenance window\n\nHeads up,\nThe {kw} build "
                f"cluster is being rotated out this weekend; expect CI queues "
                f"to pause overnight.")
    else:
        body = (f"Subject: office notes\n\nHi all,\n{rng.choice(_MUNDANE)}\n"
                f"{rng.choice(_MUNDANE)}")
    if closer == "urgent":
        body += "\n" + URGENT_CLOSER
    elif closer == "plain":
        body += "\n" + rng.choice(_CLOSERS)
    return body + f"\n- {sender}"


def _placement(counts: list[tuple[tuple[str, str], int]], n: int, rng: random.Random,
            block: int = 10) -> list[tuple[str, str]]:
    """Place each kind at evenly spaced positions (largest remainder first),
    then shuffle inside blocks of ``block`` emails.  Every seed then needs
    about the same number of emails to reach a limit, which keeps calls and
    cost per query steady across seeds."""
    owed = [0.0] * len(counts)
    seq = []
    for _ in range(n):
        for j, (_, c) in enumerate(counts):
            owed[j] += c / n
        j = max(range(len(counts)), key=owed.__getitem__)
        owed[j] -= 1.0
        seq.append(counts[j][0])
    for start in range(0, n, block):
        chunk = seq[start:start + block]
        rng.shuffle(chunk)
        seq[start:start + block] = chunk
    return seq


def gen_mailbox(rng: random.Random, name: str, n: int) -> Mailbox:
    """``n`` emails: round(n * RHO) satisfy both triage filters,
    round(n * DEAL_ONLY_SHARE) only the first, two are bait that name a deal
    harmlessly, and the rest are office notes.  A quarter of the deal emails
    and an eighth of the notes end with the same-day closer; fixed counts
    keep the call totals of a full scan equal across seeds."""
    relevant = round(n * RHO)
    deal_only = round(n * DEAL_ONLY_SHARE)
    mundane = n - relevant - deal_only - BAIT_PER_MAILBOX
    counts = [
        (("relevant", "urgent"), round(relevant / 4)),
        (("relevant", "plain"), relevant - round(relevant / 4)),
        (("deal-only", "urgent"), round(deal_only / 4)),
        (("deal-only", "plain"), deal_only - round(deal_only / 4)),
        (("bait", "none"), BAIT_PER_MAILBOX),
        (("mundane", "urgent"), round(mundane / 8)),
        (("mundane", "plain"), round(mundane * 3 / 8)),
    ]
    counts.append((("mundane", "none"), n - sum(c for _, c in counts)))
    paths, texts, lines = [], [], []
    for i, (kind, closer) in enumerate(_placement(counts, n, rng)):
        path = f"email-{i:04d}.txt"
        text = _email(kind, closer, rng)
        paths.append(path)
        texts.append(text)
        lines.append(json.dumps({"path": path, "text": text}, ensure_ascii=False))
    return Mailbox(name, tuple(lines), tuple(paths), tuple(texts))


def gen_mailboxes(seed: int, count: int, n: int, tag: str) -> list[Mailbox]:
    rng = random.Random(f"{tag}:{seed}")
    return [gen_mailbox(rng, f"mbox-{m}", n) for m in range(count)]


# --- sequential oracle for any menu pipeline ------------------------------------------

@dataclass(frozen=True)
class PipelineTruth:
    outputs: tuple[tuple, ...]     # (path, mapped field values...) per output
    sequential_calls: int          # calls a one-record-at-a-time run needs


def run_oracle(box: Mailbox, ops: tuple[MenuOp, ...], limit: int | None) -> PipelineTruth:
    """Evaluate a menu pipeline over the mailbox from its text markers,
    counting the calls a sequential, short-circuiting run makes.  With no
    limit the triage pipeline needs n + s1 + s2 calls: one per email, one
    per first-filter survivor and one per second-filter survivor."""
    outputs, calls = [], 0
    for path, text in zip(box.paths, box.texts):
        if limit is not None and len(outputs) >= limit:
            break
        values, kept = [], True
        for op in ops:
            calls += 1
            if op.kind == "filter":
                if not oracle_filter(MENU.index(op), text):
                    kept = False
                    break
            else:
                values.append(oracle_map(op.field, text))
        if kept:
            outputs.append((path, *values))
    return PipelineTruth(tuple(outputs), calls)


# --- agent questions --------------------------------------------------------------------

def fenced(doc: dict) -> str:
    return "```json\n" + json.dumps(doc, ensure_ascii=False) + "\n```"


@dataclass(frozen=True)
class Question:
    mailbox: int
    ops: tuple[MenuOp, ...]
    text: str

    @property
    def pipeline(self) -> str:
        body = " | ".join(op.text for op in self.ops)
        return f"scan(ctx) | {body} | limit({SESSION_LIMIT})"


def question_text(ops, mailbox: int) -> str:
    return ("What share of the mailbox do the first emails make up that "
            + " and ".join(op.phrase for op in ops) + f" (mailbox {mailbox})?")


def gen_questions(seed: int, mailboxes: int) -> list[Question]:
    """One question per subset of 2-5 menu operators, and two per 5-operator
    subset (62 in all), in a seeded order and spread over the mailboxes.
    Every seed asks the same operator mix, so the calls per question vary
    across seeds only with the mailbox contents.  The slowest, 5-operator
    questions make up a fifth of the mix, so p90 falls inside their group
    rather than on the edge between two groups."""
    rng = random.Random(f"questions:{seed}")
    subsets = [c for k in (2, 3, 4, 5, 5)
               for c in itertools.combinations(range(len(MENU)), k)]
    rng.shuffle(subsets)
    out = []
    for i, picked in enumerate(subsets):
        ops = tuple(MENU[j] for j in picked)
        out.append(Question(i % mailboxes, ops, question_text(ops, i % mailboxes)))
    return out


def playback(q: Question, box: Mailbox, truth: PipelineTruth,
             probe_id: str, answer: float) -> list[MockRule]:
    """Five scripted agent replies: index_search, run_pipeline, read_source,
    evaluate, final answer.  Every agent prompt carries the system preamble,
    so one budgeted rule per step replays them in order."""
    steps = [
        {"thought": "find emails close to the question", "tool": "index_search",
         "args": {"query": q.text, "k": 5}},
        {"thought": "run the operators over the mailbox", "tool": "run_pipeline",
         "args": {"pipeline": q.pipeline}},
        {"thought": "spot-check one email", "tool": "read_source",
         "args": {"id": probe_id}},
        {"thought": "turn the count into a share", "tool": "evaluate",
         "args": {"expression": f"{len(truth.outputs)} / {len(box.texts)}"}},
        {"thought": "report the share",
         "final_answer": {"text": f"The share is {answer!r}.", "value": answer}},
    ]
    return [MockRule("AVAILABLE TOOLS", fenced(doc), max_calls=1) for doc in steps]


# --- store seed history ----------------------------------------------------------------

_HISTORY_TOPICS = (
    "parking and badge access changes", "payroll portal maintenance windows",
    "offsite agenda and lunch orders", "printer and toner tickets",
    "new hire orientation rooms", "timesheet deadlines", "cafeteria hours",
    "VPN certificate rotation", "wellness fair signups", "stairwell repainting",
    "expense receipt rules", "north campus shuttle times",
)


def gen_history(seed: int, count: int, mailboxes: int) -> list[tuple[str, str]]:
    """(description, instruction) pairs standing for contexts that earlier
    sessions stored.  About one in five repeats a question from the menu,
    so retrieval finds related prior findings; the rest are unrelated."""
    rng = random.Random(f"history:{seed}")
    out = []
    for j in range(count):
        if rng.random() < 0.2:
            k = rng.randint(2, 5)
            ops = [MENU[i] for i in sorted(rng.sample(range(len(MENU)), k))]
            instruction = question_text(ops, rng.randrange(mailboxes))
            answer = rng.randrange(1, 40) / 250
        else:
            instruction = (f"Summarise what the notes say about "
                           f"{rng.choice(_HISTORY_TOPICS)} in week {rng.randint(1, 52)}")
            answer = rng.randrange(1, 9)
        description = (f"Earlier session {j}: [compute] instruction: {instruction}\n"
                       f"answer: {answer!r}")
        out.append((description, instruction))
    return out
