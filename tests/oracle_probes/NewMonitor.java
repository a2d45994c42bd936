import javax.annotation.concurrent.ThreadSafe;

// each call locks a fresh object, so the block guards nothing
@ThreadSafe
class NewMonitor {
  private int x;

  public void inc() {
    synchronized (new Object()) {
      x = x + 1;
    }
  }
}
