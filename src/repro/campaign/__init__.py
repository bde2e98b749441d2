"""``repro.campaign`` — parallel, resumable experiment-campaign orchestration.

The paper's evaluation is a grid of independent cells (locking scheme x
benchmark x attack x seed).  This package runs such grids as *campaigns*:

* :mod:`~repro.campaign.spec` — declarative job grids with stable
  content-hashed job keys;
* :mod:`~repro.campaign.jobs` — the job-kind registry worker processes use
  to turn a spec cell into a JSON payload;
* :mod:`~repro.campaign.store` — an append-only JSONL result store with a
  latest-wins index (the basis of resume);
* :mod:`~repro.campaign.executor` — serial or process-pool execution with
  per-job wall-clock timeouts, crash isolation and per-attempt resource
  metrics (wall/CPU time, peak RSS);
* :mod:`~repro.campaign.progress` — status tallies and live run logging.

The experiment drivers in :mod:`repro.experiments` declare their grids as
campaign specs and execute through this package; the ``python -m repro
campaign`` CLI drives whole sweeps (run / status / resume / report).
"""

from repro.campaign.executor import (
    JobTimeout,
    RunSummary,
    execute_job_attempt,
    job_deadline,
    run_campaign,
)
from repro.campaign.jobs import execute_job, register_job_kind, resolve_job_kind
from repro.campaign.progress import (
    CampaignStatus,
    GroupStatus,
    campaign_status,
    progress_printer,
    render_status,
)
from repro.campaign.spec import CampaignSpec, JobSpec, canonical_params, job_key
from repro.campaign.store import (
    STATUS_COMPLETED,
    STATUS_ERROR,
    STATUS_TIMEOUT,
    ResultStore,
    read_records,
)

__all__ = [
    "CampaignSpec",
    "CampaignStatus",
    "GroupStatus",
    "JobSpec",
    "JobTimeout",
    "ResultStore",
    "RunSummary",
    "STATUS_COMPLETED",
    "STATUS_ERROR",
    "STATUS_TIMEOUT",
    "campaign_status",
    "canonical_params",
    "execute_job",
    "execute_job_attempt",
    "job_deadline",
    "job_key",
    "progress_printer",
    "read_records",
    "register_job_kind",
    "render_status",
    "resolve_job_kind",
    "run_campaign",
]
