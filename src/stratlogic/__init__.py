"""stratlogic: a model checker and game-analysis toolkit for a PDL-style
multi-agent strategy logic over finite strategic games."""

from .games import (
    Coalition,
    GameError,
    GameForm,
    OutcomeRecord,
    Outcomes,
    Profile,
    StrategicGame,
    all_profiles,
    best_response,
)
from .syntax import (
    ADV,
    CUR,
    Adversary,
    Agent,
    AgentConv,
    And,
    Box,
    Choice,
    Concrete,
    Current,
    Diamond,
    Formula,
    Iff,
    Implies,
    Label,
    Not,
    Or,
    Program,
    Seq,
    Signature,
    Star,
    Test,
    Top,
    UtilEq,
    Vec,
    Vector,
    VectorAtom,
    Winner,
    conj,
    disj,
    render,
)
from .models import (
    EvalError,
    IntensionalModel,
    MaslModel,
    confusion_model,
    counterexample,
    epistemic_lift,
    extension,
    model_signature,
    pre,
    restrict,
    satisfies,
    valid_in_model,
)
from .parser import ParseError, parse
from .properties import build_property
from .coalition import (
    CLAnd,
    CLAtom,
    CLBox,
    CLFormula,
    CLNot,
    CLTop,
    cl_extension,
    coalition_vectors,
    render_cl,
    translate,
)
from .voting import (
    AuditReport,
    Ballot,
    Manipulation,
    VotingError,
    VotingRule,
    apply_rule,
    audit_rule,
    induced_game,
    outcome_payoff,
    set_better,
)
from .axioms import (
    ALL_SCHEMAS,
    EPISTEMIC_SCHEMAS,
    VECTOR_SCHEMAS,
    AxiomInstance,
    InstanceResult,
    validity_report,
)
from .jsonio import FormatError

__version__ = "0.1.0"
